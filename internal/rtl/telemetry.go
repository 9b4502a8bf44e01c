package rtl

import "repro/internal/telemetry"

// The kernel's counters (Wire.Transfers/Stalls/Occupied, busy-watch
// cycle counts) are plain integers written only by the simulation
// thread — keeping the hot path free of atomics. Instrumentation
// declares them on the caller's telemetry.Mirror, whose Sync — at the
// cadence its owner picks — copies each into its atomic series, so a
// scraper on another goroutine always reads a consistent recent view
// without ever touching simulation state.

// busyWatch samples one unit's busy predicate each cycle.
type busyWatch struct {
	busy   func() bool
	cycles uint64 // plain; sim thread only
}

// Instrument declares the simulation's counters on m, in the p5_*
// family of the P5 the kernel simulates. Every wire gets
// p5_wire_{transfers,stalls,occupied_cycles}_total series labelled
// with its name, and the clock is exported as p5_cycles_total. Wires created after this call are not
// covered — instrument after wiring. The series are as fresh as m's
// last Sync.
func (s *Sim) Instrument(m *telemetry.Mirror) {
	m.Counter("p5_cycles_total", "Simulation clock cycles elapsed.",
		func() uint64 { return uint64(s.cycle) })
	for _, w := range s.wires {
		name := telemetry.L("wire", w.Name)
		m.Counter("p5_wire_transfers_total", "Flits accepted across the wire.",
			func() uint64 { return w.Transfers }, name)
		m.Counter("p5_wire_stalls_total", "Producer cycles blocked on a full wire (backpressure).",
			func() uint64 { return w.Stalls }, name)
		m.Counter("p5_wire_occupied_cycles_total", "Cycles the wire slot held a flit at the clock edge.",
			func() uint64 { return w.Occupied }, name)
	}
	s.mirror = m
}

// WatchBusy samples busy every cycle and declares the count of busy
// cycles as the series name on the Instrument mirror; the caller picks
// the name, help and labels (so the p5 layer keeps its own naming).
// Only effective after Instrument.
func (s *Sim) WatchBusy(name, help string, busy func() bool, labels ...telemetry.Label) {
	if s.mirror == nil {
		return
	}
	bw := &busyWatch{busy: busy}
	s.watches = append(s.watches, bw)
	s.mirror.Counter(name, help, func() uint64 { return bw.cycles }, labels...)
}
