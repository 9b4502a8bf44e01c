package aps

import (
	"repro/internal/sonet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Protected is one end of a 1+1 protected STM-1 pair behind the
// transport.LineTransport seam: a permanent head-end bridge sending the
// same octets down a working and a protection section, and a Controller
// moving the receive selector between them. A service-affecting defect
// on one section becomes an APS switch the PPP session never sees; Up
// turns false only when both sections are down, and that outage is
// escalated by whatever drives the line (gigapos.TransportPort).
//
// A pair is driven from one goroutine; Up and Stats are safe from any.
type Protected struct {
	// Ctrl is the protection controller (exported for external commands
	// — lockout, forced and manual switches — and state).
	Ctrl *Controller

	// DiscardedStandbyOctets counts payload octets recovered from the
	// standby section and dropped by the selector — the cost of keeping
	// the standby deframer hot so a switch is a pointer flip.
	DiscardedStandbyOctets uint64

	lines   [2]*sonet.Line // this end of the working and protection sections
	scratch [][]byte       // the sections' Recv scratch
	// Payload the selector passed since the last Recv, and the span that
	// Recv handed out: a double buffer, valid until the second-following
	// Recv.
	rx, held []byte
	tel      *telemetry.Mirror // nil until Instrument
}

// NewProtectedPair returns the two ends of a protected pair: working and
// protection STM-1 sections whose deframers integrate defects with the
// GR-253 defaults, and at each end a bidirectional, revertive controller
// whose far-end requests arrive in the protection section's K1/K2.
func NewProtectedPair() (a, z *Protected) {
	a, z = &Protected{Ctrl: NewController()}, &Protected{Ctrl: NewController()}
	for i := range a.lines {
		a.lines[i], z.lines[i] = sonet.NewLinePair(sonet.STM1)
	}
	for _, p := range []*Protected{a, z} {
		// The deframer's persistence filter has already accepted the pair.
		p.lines[Protect].Deframer().OnAPS = func(k1, k2 byte) {
			p.Ctrl.ReceiveK1K2(p.Ctrl.Now(), k1, k2)
		}
	}
	return a, z
}

// Line exposes this end of one section: Inject for faults on what it
// transmits, Deframer() for the defect monitors and counters of what it
// receives.
func (p *Protected) Line(line Line) *sonet.Line { return p.lines[int(line)&1] }

// Send bridges b onto both sections; b is not kept.
func (p *Protected) Send(b []byte) error {
	p.lines[Working].Send(b)
	return p.lines[Protect].Send(b) // both are closed together
}

// Tick moves the end one frame time: the controller evaluates what the
// previous frames reported, one frame leaves on each section — the
// protection one carrying the controller's K1/K2 — and the selector
// passes the selected section's payload on, counts the standby's as
// discarded, and hands each section's condition to the controller. A
// frame the far end cuts later in the same tick is taken in on the next.
func (p *Protected) Tick(now int64) {
	p.Ctrl.Advance(now)
	pr := p.lines[Protect].Framer()
	pr.K1, pr.K2 = p.Ctrl.TxK1K2()
	for _, l := range p.lines {
		l.Tick(now)
	}
	for i, l := range p.lines {
		p.scratch = l.Recv(p.scratch[:0])
		for _, c := range p.scratch {
			if p.Ctrl.Active() == Line(i) {
				p.rx = append(p.rx, c...)
			} else {
				p.DiscardedStandbyOctets += uint64(len(c))
			}
		}
		d := l.Deframer().Defects.Active()
		p.Ctrl.SetSignal(now, Line(i), d&sonet.ServiceAffecting != 0, d&sonet.DefSD != 0)
	}
	p.tel.Sync()
}

// Recv appends what the selector passed since the previous Recv to dst
// as one span, valid until the second-following Recv.
func (p *Protected) Recv(dst [][]byte) [][]byte {
	full := p.rx
	p.rx, p.held = p.held[:0], full
	if len(full) > 0 {
		dst = append(dst, full[:len(full):len(full)])
	}
	return dst
}

// Up reports that at least one section has no service-affecting defect
// on its receive side.
func (p *Protected) Up() bool { return p.lines[Working].Up() || p.lines[Protect].Up() }

// Stats is the working section's; Line(Protect).Stats() has the other.
func (p *Protected) Stats() transport.Stats { return p.lines[Working].Stats() }

// Close ends Send on both sections.
func (p *Protected) Close() error {
	p.lines[Working].Close()
	return p.lines[Protect].Close()
}

// OnFailover chains fn onto the controller's selector movements, ahead
// of any subscriber already there (p5.OAM.AttachAPS chains the same
// way, so the order of the two does not matter).
func (p *Protected) OnFailover(fn func(reason, detail string, to, ticks int64)) {
	prev := p.Ctrl.OnSwitch
	p.Ctrl.OnSwitch = func(e SwitchEvent) {
		fn("aps-switch", e.Trigger.String(), int64(e.To), e.Duration)
		if prev != nil {
			prev(e)
		}
	}
}

// Instrument declares the end's series on reg, every one labelled
// {link=name} — both ends of a pair share a registry, so the label is
// what keeps their records apart: the controller's switching record
// (aps_*), each section's deframer (the sonet_* family, told apart by
// section="working"|"protect") and the standby discard counter. tr,
// when not nil, receives a structured event for every selector movement
// and every defect transition, the latter scoped to its section
// ("sonet:prot_z/working"). Tick refreshes the mirrors.
func (p *Protected) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer, name string) {
	lbl := telemetry.L("link", name)
	m := reg.Mirror()
	c := p.Ctrl
	m.Counter("aps_switches_total", "Protection-selector movements.",
		func() uint64 { return c.Switches }, lbl)
	m.Counter("aps_to_protect_total", "Selector movements onto the protection line.",
		func() uint64 { return c.ToProtect }, lbl)
	m.Counter("aps_to_working_total", "Selector movements back to the working line.",
		func() uint64 { return c.ToWorking }, lbl)
	m.Counter("aps_remote_wins_total", "Evaluations won by the far-end K1 request.",
		func() uint64 { return c.RemoteWins }, lbl)
	m.Gauge("aps_active", "Selected line: 0 working, 1 protect.",
		func() int64 { return int64(c.Active()) }, lbl)
	m.Gauge("aps_request", "Transmitted K1 request code.", func() int64 {
		r, _ := ParseK1(c.txK1)
		return int64(r)
	}, lbl)
	// Switch-completion time in frame times (125 µs each): the GR-253
	// budget is 50 ms = 400 frames, so the buckets straddle it.
	durations := reg.Histogram("aps_switch_duration",
		"Trigger-to-selector-movement time (frame times; 400 = the 50 ms budget).",
		[]int64{1, 4, 16, 64, 200, 400, 800}, lbl)
	prev := c.OnSwitch
	c.OnSwitch = func(e SwitchEvent) {
		durations.Observe(e.Duration)
		if tr != nil {
			origin := "local"
			if e.Remote {
				origin = "remote"
			}
			tr.Emit(e.Now, "aps:"+name, "switch", e.From.String()+"->"+e.To.String()+
				" on "+e.Trigger.String()+" ("+origin+")", int64(e.To), e.Duration)
		}
		if prev != nil {
			prev(e)
		}
	}

	p.lines[Working].Deframer().Instrument(m, tr, lbl, telemetry.L("section", "working"))
	p.lines[Protect].Deframer().Instrument(m, tr, lbl, telemetry.L("section", "protect"))
	m.Counter("link_standby_discarded_octets_total",
		"Standby-line payload octets dropped by the receive selector.",
		func() uint64 { return p.DiscardedStandbyOctets }, lbl)
	m.Sync()
	p.tel = m
}
