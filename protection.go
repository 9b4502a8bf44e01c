package gigapos

import (
	"repro/internal/aps"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// This file wires a Link to a 1+1 protected SONET line pair: one PPP
// endpoint, two transmit framers fed from a permanent bridge of the
// same payload stream, two supervised receive deframers, and an
// aps.Controller moving the receive selector between them. A
// service-affecting defect on one line becomes an APS switch — the
// LCP/IPCP session never notices — and only when both lines are down
// does the event reach Link.NotifyDefects and the self-healing
// supervisor's backoff path.

// ProtectionConfig configures the protected pair around a Link.
type ProtectionConfig struct {
	// Level is the SONET rate of both lines (default STM1).
	Level sonet.Level
	// APS parameterises the protection controller.
	APS aps.Config
	// Defects overrides the defect-integration thresholds applied to
	// both receive deframers (zero values keep the GR-253 defaults).
	Defects sonet.DefectConfig
}

func (c ProtectionConfig) level() sonet.Level {
	if c.Level > 0 {
		return c.Level
	}
	return sonet.STM1
}

// ProtectedLink is a Link riding a 1+1 protected line pair. Drive it
// like the unprotected arrangement, but with two line feeds: per tick,
// call Advance, transmit both NextFrames outputs, and deliver each
// received line's octets to FeedWorking / FeedProtect. The receive
// selector follows Ctrl.
type ProtectedLink struct {
	*Link
	// Ctrl is the protection controller (exported for external
	// commands — lockout, forced and manual switches — and state).
	Ctrl *aps.Controller

	fr  [2]*sonet.Framer
	df  [2]*sonet.Deframer
	txQ []byte // payload queued behind the permanent bridge: both lines carry it
	rx  []byte // one line's payload accumulated during a Feed

	// DiscardedStandbyOctets counts payload octets recovered from the
	// standby line and dropped by the selector — the cost of keeping
	// the standby deframer hot so a switch is a pointer flip.
	DiscardedStandbyOctets uint64

	now int64
	tel *telemetry.Mirror // nil until Instrument
}

// NewProtectedLink builds a Link plus its protected line pair.
func NewProtectedLink(cfg LinkConfig, pcfg ProtectionConfig) *ProtectedLink {
	pl := &ProtectedLink{Link: NewLink(cfg), Ctrl: aps.NewController(pcfg.APS)}
	level := pcfg.level()
	for i := range pl.fr {
		pl.fr[i] = sonet.NewFramer(level, nil)
		// Both framers read the one queue; off is how much of it the
		// frame being built already carries.
		pl.fr[i].Fill = func(dst []byte, off int) int {
			return copy(dst, pl.txQ[min(off, len(pl.txQ)):])
		}
		pl.df[i] = sonet.NewDeframer(level, nil)
		pl.df[i].Payload = func(p []byte, _ int) { pl.rx = append(pl.rx, p...) }
		pl.df[i].Defects.Cfg = pcfg.Defects
	}
	// Far-end requests arrive in the protection line's K1/K2, already
	// persistence-filtered by the deframer.
	pl.df[aps.Protect].OnAPS = func(k1, k2 byte) {
		pl.Ctrl.ReceiveK1K2(pl.now, k1, k2)
	}
	return pl
}

// Active returns the line the receive selector currently follows.
func (pl *ProtectedLink) Active() aps.Line { return pl.Ctrl.Active() }

// Deframer exposes a line's receive deframer (defect monitors,
// counters) for tests and OAM attachment.
func (pl *ProtectedLink) Deframer(line aps.Line) *sonet.Deframer { return pl.df[int(line)&1] }

// Advance moves the endpoint and the protection controller one virtual
// time step. Call once per frame time, after the tick's line feeds.
func (pl *ProtectedLink) Advance(now int64) {
	pl.now = now
	pl.Link.Advance(now)
	pl.Ctrl.Advance(now)
	pl.tel.Sync()
}

// NextFrames queues the Link's pending output and builds one transmit
// frame per line from the same queue — the permanent 1+1 head-end
// bridge. The protection line's frame carries the controller's current
// K1/K2.
func (pl *ProtectedLink) NextFrames() (working, protect []byte) {
	pl.txQ = append(pl.txQ, pl.Link.Output()...)
	pl.fr[aps.Protect].K1, pl.fr[aps.Protect].K2 = pl.Ctrl.TxK1K2()
	working, protect = pl.fr[aps.Working].NextFrame(), pl.fr[aps.Protect].NextFrame()
	sent := min(len(pl.txQ), pl.fr[aps.Working].Level.PayloadBytes())
	pl.txQ = pl.txQ[:copy(pl.txQ, pl.txQ[sent:])]
	return working, protect
}

// FeedWorking delivers received working-line octets.
func (pl *ProtectedLink) FeedWorking(p []byte) { pl.feed(aps.Working, p) }

// FeedProtect delivers received protection-line octets.
func (pl *ProtectedLink) FeedProtect(p []byte) { pl.feed(aps.Protect, p) }

func (pl *ProtectedLink) feed(line aps.Line, p []byte) {
	pl.rx = pl.rx[:0]
	pl.df[int(line)].Feed(p)
	if len(pl.rx) > 0 {
		if pl.Ctrl.Active() == line {
			pl.Link.Input(pl.rx)
		} else {
			pl.DiscardedStandbyOctets += uint64(len(pl.rx))
		}
	}
	pl.observe(line)
}

// observe refreshes the controller's view of one line's condition and
// decides whether the outage escalates past the protection layer: only
// with BOTH lines service-affected does the supervisor see a defect
// outage and fall back to its backoff-and-retry recovery.
func (pl *ProtectedLink) observe(line aps.Line) {
	d := pl.df[int(line)].Defects.Active()
	pl.Ctrl.SetSignal(pl.now, line,
		d&sonet.ServiceAffecting != 0, d&sonet.DefSD != 0)

	w := pl.df[aps.Working].Defects.Active()
	p := pl.df[aps.Protect].Defects.Active()
	if w&sonet.ServiceAffecting != 0 && p&sonet.ServiceAffecting != 0 {
		pl.Link.NotifyDefects(uint32(w | p))
	} else {
		pl.Link.NotifyDefects(0)
	}
}

// Instrument exports the full protected-endpoint probe set, every
// series labelled {link=name} so both ends of a pair can share one
// registry: the Link's protocol counters, the APS controller (aps_*),
// and each line's deframer (link_working_* / link_protect_*). The
// mirrors refresh on every Advance.
func (pl *ProtectedLink) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer, name string) {
	pl.Link.Instrument(reg, tr, name)
	lbl := telemetry.L("link", name)
	pl.tel = reg.Mirror()
	pl.Ctrl.Instrument(pl.tel, tr, name)
	pl.df[aps.Working].Instrument(pl.tel, tr, "link_working", lbl)
	pl.df[aps.Protect].Instrument(pl.tel, tr, "link_protect", lbl)
	pl.tel.Counter("link_standby_discarded_octets_total",
		"Standby-line payload octets dropped by the receive selector.",
		func() uint64 { return pl.DiscardedStandbyOctets }, lbl)
	pl.tel.Sync()
}
