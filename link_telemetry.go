package gigapos

import (
	"repro/internal/flight"
	"repro/internal/lcp"
	"repro/internal/telemetry"
)

// linkTelemetry holds a Link's probe state: the registry mirror of its
// plain counters (refreshed on every Advance — the control-plane
// cadence, so no hot-path cost) and the shared event tracer.
type linkTelemetry struct {
	tracer *telemetry.Tracer
	scope  string
	mirror *telemetry.Mirror
}

// trace emits a structured event on the link's tracer (no-op while
// uninstrumented) and mirrors it into the flight recorder's black-box
// ring when one is armed, so captures carry the protocol history that
// led up to the trigger.
func (l *Link) trace(name, detail string, v1, v2 int64) {
	if l.fl != nil {
		l.fl.rec.Event(l.now, name, detail, v1, v2)
	}
	if l.tel == nil || l.tel.tracer == nil {
		return
	}
	l.tel.tracer.Emit(l.now, l.tel.scope, name, detail, v1, v2)
}

func (l *Link) endpoint() *Link { return l }

// Observe arms o on the link: with Flight a recorder called name; with
// Registry the protocol counters, every series labelled {link=name},
// and the structured events (LCP/IPCP state transitions, supervisor
// actions, echo timeouts) to Tracer. A second Observe on the same
// registry and name is a wiring bug and panics on the first mirrored
// series.
func (l *Link) Observe(o Observation, name string) {
	if o.Flight != nil {
		l.armFlight(flight.NewRecorder(o.Registry, name, *o.Flight))
	}
	reg := o.Registry
	if reg == nil {
		return
	}
	lbl := telemetry.L("link", name)
	m := reg.Mirror()
	m.Counter("link_rx_frames_total", "HDLC frames accepted by the endpoint.",
		func() uint64 { return l.RxFrames }, lbl)
	m.Counter("link_rx_errors_total", "Damaged or undecodable frames (FCS failures included).",
		func() uint64 { return l.RxErrors }, lbl)
	m.Counter("link_protocol_rejects_total", "Protocol-Reject packets sent.",
		func() uint64 { return l.ProtocolRejects }, lbl)
	m.Counter("link_echo_timeouts_total", "Dead-peer teardowns from unanswered echoes.",
		func() uint64 { return l.EchoTimeouts }, lbl)
	m.Counter("link_auth_failures_total", "Authentication phase failures.",
		func() uint64 { return l.AuthFailures }, lbl)
	m.Counter("link_lcp_tx_packets_total", "LCP control packets sent.",
		func() uint64 { return l.lcpA.TxPackets }, lbl)
	m.Counter("link_lcp_rx_packets_total", "LCP control packets received.",
		func() uint64 { return l.lcpA.RxPackets }, lbl)
	m.Counter("link_lcp_timeouts_total", "LCP restart-timer expiries.",
		func() uint64 { return l.lcpA.Timeouts }, lbl)
	m.Gauge("link_line_rto", "Measured round-trip timeout of the line before backoff (virtual ticks).",
		func() int64 { return l.lcpA.Line.Period(0) }, lbl)
	m.Gauge("link_lcp_state", "LCP automaton state (RFC 1661 ordinal).",
		func() int64 { return int64(l.lcpA.State()) }, lbl)
	m.Gauge("link_ipcp_state", "IPCP automaton state (RFC 1661 ordinal).",
		func() int64 { return int64(l.ipcpA.State()) }, lbl)
	if l.vjTx != nil {
		m.Counter("link_vj_out_ip_total", "Datagrams sent uncompressible (TYPE_IP).",
			func() uint64 { return l.vjTx.OutIP }, lbl)
		m.Counter("link_vj_out_uncompressed_total", "Datagrams sent as VJ UNCOMPRESSED_TCP.",
			func() uint64 { return l.vjTx.OutUncompressed }, lbl)
		m.Counter("link_vj_out_compressed_total", "Datagrams sent as VJ COMPRESSED_TCP (hits).",
			func() uint64 { return l.vjTx.OutCompressed }, lbl)
		m.Counter("link_vj_saved_octets_total", "Header octets elided by VJ compression.",
			func() uint64 { return l.vjTx.SavedOctets }, lbl)
	}
	if l.sup != nil {
		m.Counter("link_supervisor_restarts_total", "Supervised re-open attempts.",
			func() uint64 { return l.sup.Restarts }, lbl)
		m.Counter("link_supervisor_recoveries_total", "Returns to Opened after an outage.",
			func() uint64 { return l.sup.Recoveries }, lbl)
		m.Counter("link_supervisor_defect_outages_total", "Service-affecting defect windows.",
			func() uint64 { return l.sup.DefectOutages }, lbl)
	}
	l.tel = &linkTelemetry{tracer: o.Tracer, scope: "link:" + name, mirror: m}

	lcpTrans := reg.Counter("link_lcp_transitions_total", "LCP automaton state transitions.", lbl)
	l.lcpA.OnTransition = func(from, to lcp.State) {
		lcpTrans.Inc()
		l.trace("lcp-transition", from.String()+"->"+to.String(), int64(from), int64(to))
	}
	ipcpTrans := reg.Counter("link_ipcp_transitions_total", "IPCP automaton state transitions.", lbl)
	l.ipcpA.OnTransition = func(from, to lcp.State) {
		ipcpTrans.Inc()
		l.trace("ipcp-transition", from.String()+"->"+to.String(), int64(from), int64(to))
	}
	m.Sync()
}
