package gigapos

import (
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// RingLink is the ring-aware endpoint: a full PPP Link whose line
// octets ride a circuit on a topo.Ring instead of a dedicated fibre
// pair. The ring layer supplies protection (the UPSR path selector or
// a BLSR ring switch); the RingLink bridges its outcomes into the
// link-layer machinery — a selector movement records a failover for
// the SLO evaluator and dumps the flight recorder, and a squelched
// circuit (both paths dead) escalates to the supervisor exactly like
// a dual line failure on a ProtectedLink.
//
// Drive pattern, once per tick, after Ring.Tick:
//
//	ring.Tick(now)
//	rl.Advance(now) // protocol timers, then port exchange
type RingLink struct {
	*Link
	Port *topo.Port

	rxBuf []byte
	tel   *telemetry.Mirror // nil until Observe with a Registry
}

// NewRingLink builds a link over a ring circuit endpoint.
func NewRingLink(cfg LinkConfig, port *topo.Port) *RingLink {
	rl := &RingLink{Link: NewLink(cfg), Port: port}
	// The endpoint owns its port's hooks. A selector movement records the
	// outage it healed and dumps the black box, once a recorder is armed.
	port.OnSwitch = func(now int64, from, to topo.Rotation, outage int64) {
		rl.Link.flightFailover("ring-switch", to.String(), int64(to), outage)
	}
	port.OnDown = func(now int64, down bool) {
		if down {
			rl.Link.trace("ring-squelch", rl.Port.Circ.Name, 1, now)
			rl.Link.NotifyDefects(AlarmServiceAffecting)
		} else {
			rl.Link.trace("ring-squelch", rl.Port.Circ.Name, 0, now)
			rl.Link.NotifyDefects(0)
		}
	}
	return rl
}

// Advance runs the link's protocol timers, then exchanges line octets
// with the ring port: transmit output into the add queue, drain the
// selected drop stream into the receiver.
func (rl *RingLink) Advance(now int64) {
	rl.Link.Advance(now)
	if out := rl.Link.Output(); len(out) > 0 {
		rl.Port.Send(out)
	}
	rl.rxBuf = rl.Port.Recv(rl.rxBuf[:0])
	if len(rl.rxBuf) > 0 {
		rl.Link.Input(rl.rxBuf)
	}
	rl.tel.Sync()
}

// Observe arms o on the Link underneath and adds the ring endpoint's
// selector counters (link_ring_*), all labelled {link=name}. Mirrors
// refresh on every Advance.
func (rl *RingLink) Observe(o Observation, name string) {
	rl.Link.Observe(o, name)
	if o.Registry == nil {
		return
	}
	lbl := telemetry.L("link", name)
	rl.tel = o.Registry.Mirror()
	rl.tel.Counter("link_ring_switches_total",
		"Path selector movements at this ring endpoint.",
		func() uint64 { return rl.Port.Switches }, lbl)
	rl.tel.Counter("link_ring_fill_octets_total",
		"Idle flag octets inserted while the add queue ran dry.",
		func() uint64 { return rl.Port.FillOctets }, lbl)
	rl.tel.Counter("link_ring_rx_drops_total",
		"Drop-stream octets discarded to the receive depth cap.",
		func() uint64 { return rl.Port.RxDrops }, lbl)
	rl.tel.Gauge("link_ring_selected_rotation",
		"Rotation the drop selector currently delivers (0 east, 1 west).",
		func() int64 { return int64(rl.Port.Selected()) }, lbl)
	rl.tel.Gauge("link_ring_down",
		"1 while the circuit is squelched (no rotation delivers).",
		func() int64 {
			if rl.Port.Down() {
				return 1
			}
			return 0
		}, lbl)
	rl.tel.Sync()
}
