package gigapos

import (
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/telemetry"
)

// Observation says what to watch: the one value every arming call
// takes, the software counterpart of the P5's single OAM register file.
// A nil field is off and the zero value arms nothing. Arm once, before
// traffic, from the goroutine that drives the port; the order against
// other hook subscribers (p5.OAM.AttachAPS, a caller's OnEvent) does not
// matter — every hook is the port's own from construction or chains.
type Observation struct {
	// Registry receives the protocol series, labelled with the end's
	// name and refreshed on every Advance, and whatever the other fields
	// arm registers there too.
	Registry *telemetry.Registry
	// Tracer receives the structured events (LCP/IPCP transitions,
	// supervisor actions, protection switches, defects) the instruments
	// on Registry emit. Read only with Registry.
	Tracer *telemetry.Tracer
	// Flight arms the flight recorder: latency pipe, black box, captures.
	Flight *flight.Config
	// SLO sets the objectives ObservePair grades a joined pair against
	// (zero value = the defaults). Read only with Flight.
	SLO flight.SLOConfig
	// Profile arms the per-shard stage clock; only an Engine has shards.
	Profile *prof.Config
}

// Observable is an end that can be watched: *Link or *TransportPort.
// Observe arms o under name — the end's {link} label, its recorder, the
// prefix of its capture files — and a port adds what its line has
// (table in DESIGN.md §9). The set is closed: ObservePair reaches the
// Link underneath to join the pipes.
type Observable interface {
	Observe(o Observation, name string)
	endpoint() *Link
}

// Watch collects what arming builds that no single end owns (an end's
// own recorder is Link.Flight). The zero Watch is ready to use.
type Watch struct {
	// SLOs are the evaluators arming built, by name (<pair>_a,
	// <pair>_z), for a host that wires one into its own alarm path
	// (p5.OAM) or reads it into a report.
	SLOs map[string]*flight.SLO
	// Profile is an Engine's stage-cost collector.
	Profile *prof.Collector
}

// ObservePair arms both ends of a pair under one naming rule:
// everything that belongs to an end is called name_a or name_z — its
// series, its recorder, its capture files, the SLO grading what it
// receives. With Flight the two latency pipes are joined, each end is
// graded over its receive direction, and the SLOs go in w.SLOs (an
// end's recorder is its Link.Flight). Either end may be nil: a single
// end keeps its suffix, its recorder, black box, captures and capture
// correlation, but has no latency pipe — its peer's recorder is out of
// reach, so it tags nothing, its flight_frames_* series read 0, and it
// is not graded.
func (w *Watch) ObservePair(o Observation, name string, a, z Observable) {
	ends := make([]*Link, 0, 2)
	for i, end := range []Observable{a, z} {
		if end != nil {
			end.Observe(o, name+[]string{"_a", "_z"}[i])
			ends = append(ends, end.endpoint())
		}
	}
	if o.Flight == nil || len(ends) < 2 {
		return
	}
	if w.SLOs == nil {
		w.SLOs = make(map[string]*flight.SLO)
	}
	ends[0].fl.peer, ends[1].fl.peer = ends[1].fl.rec, ends[0].fl.rec
	for _, l := range ends {
		w.SLOs[l.fl.rec.Name()] = l.armSLO(o.Registry, l.fl.rec.Name(), o.SLO)
	}
}
