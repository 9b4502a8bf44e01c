package gigapos

import (
	"repro/internal/aps"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// This file wires a Link to a 1+1 protected SONET line pair: one PPP
// endpoint on two sonet.Lines (the same seam every other carrier sits
// behind), a permanent transmit bridge sending the same payload stream
// down both, and an aps.Controller moving the receive selector between
// them. A service-affecting defect on one line becomes an APS switch —
// the LCP/IPCP session never notices — and only when both lines are
// down does the event reach Link.NotifyDefects and the self-healing
// supervisor's backoff path.

// ProtectedLink is one end of a Link pair riding a 1+1 protected line
// pair. Advance is the whole drive: once per frame time and end. The
// receive selector follows Ctrl.
type ProtectedLink struct {
	*Link
	// Ctrl is the protection controller (exported for external
	// commands — lockout, forced and manual switches — and state).
	Ctrl *aps.Controller

	lines [2]*sonet.Line // this end of the working and protection sections
	rx    [][]byte       // Recv scratch

	// DiscardedStandbyOctets counts payload octets recovered from the
	// standby line and dropped by the selector — the cost of keeping
	// the standby deframer hot so a switch is a pointer flip.
	DiscardedStandbyOctets uint64

	tel *telemetry.Mirror // nil until Observe with a Registry
}

// NewProtectedPair builds two Links, each with a bidirectional,
// revertive protection controller, and the working and protection
// sections between them: STM-1 lines whose deframers integrate defects
// with the GR-253 defaults.
func NewProtectedPair(cfgA, cfgB LinkConfig) (a, b *ProtectedLink) {
	a = &ProtectedLink{Link: NewLink(cfgA), Ctrl: aps.NewController()}
	b = &ProtectedLink{Link: NewLink(cfgB), Ctrl: aps.NewController()}
	for i := range a.lines {
		a.lines[i], b.lines[i] = sonet.NewLinePair(sonet.STM1)
	}
	for _, pl := range []*ProtectedLink{a, b} {
		// Far-end requests arrive in the protection line's K1/K2, already
		// persistence-filtered by the deframer.
		pl.lines[aps.Protect].Deframer().OnAPS = func(k1, k2 byte) {
			pl.Ctrl.ReceiveK1K2(pl.Ctrl.Now(), k1, k2)
		}
		// The controller is ours, so this is the first subscriber (aps
		// telemetry and p5.OAM.AttachAPS chain onto it).
		pl.Ctrl.OnSwitch = func(e aps.SwitchEvent) {
			pl.Link.flightFailover("aps-switch", e.Trigger.String(), int64(e.To), e.Duration)
		}
	}
	return a, b
}

// Active returns the line the receive selector currently follows.
func (pl *ProtectedLink) Active() aps.Line { return pl.Ctrl.Active() }

// Line exposes this end of one section: Inject for faults on what it
// transmits, Deframer() for the defect monitors and counters of what it
// receives.
func (pl *ProtectedLink) Line(line aps.Line) *sonet.Line { return pl.lines[int(line)&1] }

// Advance moves the endpoint one frame time: the Link's and the
// controller's clocks; one frame onto each line — the permanent 1+1
// head-end bridge, the protection line carrying the controller's K1/K2;
// then what the far end's frames have delivered — the selected line's
// payload to the Link, the standby's to the counter, each line's
// condition to the controller. A frame the far end cuts later in the
// same tick is taken in on the next.
func (pl *ProtectedLink) Advance(now int64) {
	pl.Link.Advance(now)
	pl.Ctrl.Advance(now)

	out := pl.Link.Output()
	pr := pl.lines[aps.Protect].Framer()
	pr.K1, pr.K2 = pl.Ctrl.TxK1K2()
	for _, l := range pl.lines {
		l.Send(out)
		l.Tick(now)
	}

	var d [2]sonet.Defect
	for i, l := range pl.lines {
		pl.rx = l.Recv(pl.rx[:0])
		if pl.Ctrl.Active() == aps.Line(i) {
			pl.Link.InputBatch(pl.rx)
		} else {
			for _, c := range pl.rx {
				pl.DiscardedStandbyOctets += uint64(len(c))
			}
		}
		d[i] = l.Deframer().Defects.Active()
		pl.Ctrl.SetSignal(now, aps.Line(i), d[i]&sonet.ServiceAffecting != 0, d[i]&sonet.DefSD != 0)
	}
	// The outage escalates past the protection layer only with BOTH
	// lines service-affected: then the supervisor sees a defect outage
	// and falls back to its backoff-and-retry recovery.
	if d[0]&sonet.ServiceAffecting != 0 && d[1]&sonet.ServiceAffecting != 0 {
		pl.Link.NotifyDefects(uint32(d[0] | d[1]))
	} else {
		pl.Link.NotifyDefects(0)
	}
	pl.tel.Sync()
}

// Observe arms o on the Link underneath and adds what a protected end
// has, every series labelled {link=name} so both ends of a pair can
// share one registry: the APS controller (aps_*) and each line's
// deframer (link_working_* / link_protect_*), with their events. The
// mirrors refresh on every Advance.
func (pl *ProtectedLink) Observe(o Observation, name string) {
	pl.Link.Observe(o, name)
	if o.Registry == nil {
		return
	}
	lbl := telemetry.L("link", name)
	pl.tel = o.Registry.Mirror()
	pl.Ctrl.Instrument(pl.tel, o.Tracer, name)
	pl.lines[aps.Working].Deframer().Instrument(pl.tel, o.Tracer, "link_working", lbl)
	pl.lines[aps.Protect].Deframer().Instrument(pl.tel, o.Tracer, "link_protect", lbl)
	pl.tel.Counter("link_standby_discarded_octets_total",
		"Standby-line payload octets dropped by the receive selector.",
		func() uint64 { return pl.DiscardedStandbyOctets }, lbl)
	pl.tel.Sync()
}
