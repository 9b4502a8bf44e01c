package p5

import (
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Telemetry mirrors: the datapath counters are plain uint64s written
// only on the simulation thread (see internal/rtl/telemetry.go); here
// each is declared on the System's one telemetry.Mirror, kernel series
// included, whose Sync copies it into its atomic registry series. System
// hooks the sync into its own Cycle so a scraper sees values at most
// telemetrySyncInterval cycles stale.

// telemetrySyncInterval is how often (cycles) an instrumented System
// refreshes its mirrors. Power of two so the check is a mask.
const telemetrySyncInterval = 256

// instrumentTransmitter declares a transmitter's unit counters on m and
// samples its units' busy state each cycle (sim must already be
// instrumented).
func instrumentTransmitter(m *telemetry.Mirror, sim *rtl.Sim, tx *Transmitter) {
	m.Counter("p5_tx_frames_total", "Frames through the transmit CRC unit.",
		func() uint64 { return tx.CRC.Frames })
	m.Counter("p5_tx_octets_total", "Payload octets read by the framer.",
		func() uint64 { return tx.Framer.OctetsRead })
	m.Counter("p5_tx_escaped_octets_total", "Octets escaped on transmit.",
		func() uint64 { return tx.Escape.Escaped })
	m.Counter("p5_tx_idle_words_total", "Idle fill words emitted on the line.",
		func() uint64 { return tx.Escape.IdleWords })
	m.Counter("p5_tx_stall_cycles_total", "Transmit cycles refused by line backpressure.",
		func() uint64 { return tx.Escape.InputStalls })
	m.Gauge("p5_tx_sorter_occupancy", "Transmit byte-sorter FIFO occupancy (octets).",
		func() int64 { return int64(tx.Escape.Occupancy()) })
	m.Gauge("p5_tx_sorter_highwater", "Transmit byte-sorter FIFO high-water mark (octets).",
		func() int64 { return int64(tx.Escape.HighWater()) })
	watchUnitBusy(sim, "framer", tx.Framer.busy)
	watchUnitBusy(sim, "tx_crc", tx.CRC.busy)
	watchUnitBusy(sim, "escape_gen", tx.Escape.Busy)
}

// instrumentReceiver declares a receiver's unit counters on m and
// samples its units' busy state each cycle.
func instrumentReceiver(m *telemetry.Mirror, sim *rtl.Sim, rx *Receiver) {
	m.Counter("p5_rx_frames_good_total", "Frames delivered with a valid FCS.",
		func() uint64 { return rx.Control.Good })
	m.Counter("p5_rx_frames_bad_total", "Frames disposed of as damaged.",
		func() uint64 { return rx.Control.Bad })
	m.Counter("p5_rx_fcs_errors_total", "Frames failing the FCS check.",
		func() uint64 { return rx.CRC.FCSErrors })
	m.Counter("p5_rx_aborts_total", "Frames ended by an HDLC abort.",
		func() uint64 { return rx.Delineator.Aborts })
	m.Counter("p5_rx_overruns_total", "Octets dropped to receive overrun.",
		func() uint64 { return rx.Delineator.Overruns })
	m.Counter("p5_rx_runts_total", "Frames below the minimum length.",
		func() uint64 { return rx.Control.Runts })
	m.Counter("p5_rx_flags_total", "Flag sequences seen by the delineator.",
		func() uint64 { return rx.Delineator.FlagsSeen })
	m.Counter("p5_rx_sorter_bubbles_total", "Escape octets removed by the byte sorter (pipeline bubbles).",
		func() uint64 { return rx.Escape.Removed })
	m.Counter("p5_rx_stall_cycles_total", "Receive cycles refused by downstream backpressure.",
		func() uint64 { return rx.Escape.InputStalls })
	m.Gauge("p5_rx_sorter_occupancy", "Receive byte-sorter FIFO occupancy (octets).",
		func() int64 { return int64(rx.Escape.Occupancy()) })
	m.Gauge("p5_rx_sorter_highwater", "Receive byte-sorter FIFO high-water mark (octets).",
		func() int64 { return int64(rx.Escape.HighWater()) })
	watchUnitBusy(sim, "delineator", rx.Delineator.busy)
	watchUnitBusy(sim, "escape_detect", rx.Escape.busy)
}

func watchUnitBusy(sim *rtl.Sim, unit string, busy func() bool) {
	sim.WatchBusy("p5_unit_busy_cycles_total",
		"Cycles the unit held frame octets (pipeline utilisation numerator).",
		busy, telemetry.L("unit", unit))
}

// Instrument exports the whole system — kernel wires, unit busy
// cycles, and datapath counters — as the p5_* family, and returns the one
// mirror that carries them, on which a caller may declare series of its
// own (the section's deframer) to share its cadence. Cycle then
// refreshes the mirror every telemetrySyncInterval cycles; call
// SyncTelemetry after the final cycle for an exact view. One registry
// takes one system: a second would fight the first over the same
// series, and the mirror refuses it.
func (s *System) Instrument(reg *telemetry.Registry) *telemetry.Mirror {
	s.tel = reg.Mirror()
	s.Sim.Instrument(s.tel)
	instrumentTransmitter(s.tel, s.Sim, s.Tx)
	instrumentReceiver(s.tel, s.Sim, s.Rx)
	s.tel.Counter("p5_line_words_total", "Words carried by the line model.",
		func() uint64 { return s.Line.Words })
	s.tel.Gauge("p5_tx_fill_latency_cycles",
		"Last measured idle-to-first-line-word transmit fill latency (cycles; -1 until measured).",
		func() int64 { return s.FillLatency })
	s.tel.Counter("p5_tx_fill_spans_total",
		"Completed fill-latency measurements (idle-to-busy transitions).",
		func() uint64 { return s.FillSpans })
	s.fillHist = reg.Histogram("p5_tx_fill_latency_cycles_dist",
		"Distribution of transmit fill latencies — the paper's four-cycle sorter claim, continuously asserted.",
		[]int64{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32})
	s.tel.Sync()
	return s.tel
}

// SyncTelemetry refreshes every exported mirror immediately. No-op
// when the system is not instrumented.
func (s *System) SyncTelemetry() { s.tel.Sync() }
