package gigapos

import (
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// This file arms a Link with the flight recorder (internal/flight):
// the departure/arrival latency pipe on the transmit and receive fast
// paths of a joined pair, the black-box wire/event rings, capture
// triggers (supervisor restart, defect escalation, APS switch,
// FCS-error burst), and the per-link SLO evaluator. Everything here
// follows the fast-path rules of DESIGN.md §8: the armed steady state
// allocates nothing and reads no wall clock, the transmit side pays
// only a pipe-ring store plus one atomic add per datagram, and unarmed
// each fast-path hook is one inlined nil check.

// Default FCS-error burst trigger: eight damaged frames inside 128
// ticks dumps the black box once per burst.
const (
	flightBurstWindow    = 128
	flightBurstThreshold = 8
)

// flightState is a Link's armed recorder plus the trigger and SLO
// plumbing around it.
type flightState struct {
	rec *flight.Recorder
	// peer is the recorder of the link whose transmissions we receive;
	// deliveries here complete that pipe. Set by ObservePair.
	peer *flight.Recorder
	slo  *flight.SLO

	burst    flight.BurstDetector
	failover int64 // last protection-switch duration in ticks
}

// armFlight attaches a fresh recorder to the link. Its register dump
// is the link's protocol state.
func (l *Link) armFlight(rec *flight.Recorder) {
	l.fl = &flightState{
		rec:   rec,
		burst: flight.BurstDetector{Window: flightBurstWindow, Threshold: flightBurstThreshold},
	}
	rec.RegDump = func(dst []flight.RegSample) []flight.RegSample {
		dst = append(dst,
			flight.RegSample{Name: "rx_frames", Value: l.RxFrames},
			flight.RegSample{Name: "rx_errors", Value: l.RxErrors},
			flight.RegSample{Name: "lcp_state", Value: uint64(l.lcpA.State())},
			flight.RegSample{Name: "ipcp_state", Value: uint64(l.ipcpA.State())})
		if l.sup != nil {
			dst = append(dst,
				flight.RegSample{Name: "supervisor_restarts", Value: l.sup.Restarts},
				flight.RegSample{Name: "supervisor_outages", Value: l.sup.DefectOutages})
		}
		return dst
	}
}

// Flight returns the link's armed recorder (nil when unarmed): the one
// way to reach an end's captures and counts after Observe.
func (l *Link) Flight() *flight.Recorder {
	if l.fl == nil {
		return nil
	}
	return l.fl.rec
}

// armSLO attaches an SLO evaluator to a link whose pipe is joined to a
// peer's, registered in reg under name. The objectives read the receive
// direction: frames the peer tagged for us, losses the matcher declared,
// the end-to-end p99 into this link, and the most recent
// protection-switch duration. Sampled on every Advance.
func (l *Link) armSLO(reg *telemetry.Registry, name string, cfg flight.SLOConfig) *flight.SLO {
	fl := l.fl
	s := flight.NewSLO(reg, name, cfg, flight.Sources{
		Frames: fl.peer.Tracked,
		// Damaged tracked frames surface as matcher losses too (the
		// departure never matches), so the lost counter alone covers
		// both drop and corruption without double counting.
		Errors:   fl.peer.Lost,
		P99:      fl.peer.P99,
		Failover: func() int64 { return fl.failover },
	})
	fl.slo = s
	s.OnAlarm = func(objective string) {
		l.trace("slo-alarm", objective, s.WorstBurnMilli(), 0)
	}
	return s
}

// flightFailover is a protection layer's selector movement as an armed
// link sees it (no-op while unarmed): the duration feeds the SLO's
// failover objective and the black box is dumped under reason, the
// switch its last event. NewTransportPort hands it to a line with a
// selector of its own (transport.Selector).
func (l *Link) flightFailover(reason, detail string, to, ticks int64) {
	if l.fl == nil {
		return
	}
	l.fl.failover = ticks
	l.trace(reason, detail, to, ticks)
	l.fl.rec.Trigger(reason)
}

// flightDepart tags one queued datagram in the departure pipe. Only an
// end ObservePair joined to a peer has a pipe: an unjoined end's
// datagrams arrive at no recorder, so tagging them would count every
// one lost.
func (l *Link) flightDepart() {
	if l.fl != nil && l.fl.peer != nil {
		l.fl.rec.Depart(l.now)
	}
}

// flightArrive matches one delivered datagram against the departure
// pipe of the peer that sent it. The first slow arrival of a run is
// the latency exemplar: it goes onto the observation tracer as a
// slow-frame event carrying the frame ID and latency, and not into
// this link's own black box.
func (l *Link) flightArrive() {
	if l.fl != nil && l.fl.peer != nil {
		id, lat, slow := l.fl.peer.Arrive(l.now)
		if slow && l.tel != nil && l.tel.tracer != nil {
			l.tel.tracer.Emit(l.now, l.tel.scope, "slow-frame", "", int64(id), lat)
		}
	}
}

// serviceFlight runs once per Advance: expire overdue departures,
// advance the recorder clock, re-evaluate the SLO.
func (l *Link) serviceFlight(now int64) {
	fl := l.fl
	fl.rec.SetNow(now)
	fl.rec.Expire(now)
	if fl.slo != nil {
		fl.slo.Sample(now)
	}
}

// flightNoteError feeds the FCS-burst detector; crossing the threshold
// dumps the black box once per burst.
func (l *Link) flightNoteError() {
	fl := l.fl
	if fl == nil {
		return
	}
	if fl.burst.Note(l.now) {
		l.trace("fcs-burst", "", int64(fl.burst.Threshold), fl.burst.Window)
		fl.rec.Trigger("fcs-burst")
	}
}

// flightTrigger dumps the black box for a named trigger (no-op while
// unarmed).
func (l *Link) flightTrigger(reason string) {
	if l.fl != nil {
		l.fl.rec.Trigger(reason)
	}
}
