package sonet

import "repro/internal/telemetry"

// Instrument declares the deframer's section counters on m under
// prefix (plus labels — a protected pair labels each line's deframer
// with its link), mirrors the active alarm set and emits a structured
// trace event for every defect raise/clear (chained ahead of any
// existing OnEvent subscriber, in the same style as OAM.AttachSection).
// tr may be nil to disable tracing. The caller's m.Sync refreshes the
// mirrors; call it at whatever cadence frames are fed.
func (d *Deframer) Instrument(m *telemetry.Mirror, tr *telemetry.Tracer, prefix string, labels ...telemetry.Label) {
	m.Counter(prefix+"_frames_ok_total", "Transport frames delivered in sync.",
		func() uint64 { return d.FramesOK }, labels...)
	m.Counter(prefix+"_frames_errored_total", "Frames delivered despite an errored A1/A2.",
		func() uint64 { return d.FramesErrored }, labels...)
	m.Counter(prefix+"_b1_errors_total", "Section BIP-8 parity errors.",
		func() uint64 { return d.B1Errors }, labels...)
	m.Counter(prefix+"_b2_errors_total", "Line BIP-8 parity errors (SD/SF source).",
		func() uint64 { return d.B2Errors }, labels...)
	m.Counter(prefix+"_b3_errors_total", "Path BIP-8 parity errors.",
		func() uint64 { return d.B3Errors }, labels...)
	m.Counter(prefix+"_resyncs_total", "Frame-alignment reacquisitions.",
		func() uint64 { return d.ResyncCount }, labels...)
	m.Gauge(prefix+"_alarms", "Active defect set (sonet.Defect bits).",
		func() int64 { return int64(d.Defects.Active()) }, labels...)
	reg := m.Registry()
	raises := reg.Counter(prefix+"_defect_raises_total", "Defect raise transitions.", labels...)
	clears := reg.Counter(prefix+"_defect_clears_total", "Defect clear transitions.", labels...)
	prev := d.Defects.OnEvent
	d.Defects.OnEvent = func(e DefectEvent) {
		name := "defect-clear"
		if e.Raised {
			raises.Inc()
			name = "defect-raise"
		} else {
			clears.Inc()
		}
		if tr != nil {
			tr.Emit(e.Octet, "sonet", name, e.Defect.String(), int64(e.Defect), int64(d.Defects.Active()))
		}
		if prev != nil {
			prev(e)
		}
	}
}
