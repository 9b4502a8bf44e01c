package sonet

import "repro/internal/telemetry"

// Instrument declares the deframer's section counters on m as the
// sonet_* family, told apart by labels (a protected pair labels each
// line's deframer with its link and section; the P5's one section has
// none), mirrors the active alarm set and emits a structured trace
// event for every defect raise/clear (chained ahead of any existing
// OnEvent subscriber, in the same style as OAM.AttachSection). The
// events' scope is "sonet", followed by the label values when there
// are any: "sonet:prot_z/working". tr may be nil to disable tracing.
// The caller's m.Sync refreshes the mirrors; call it at whatever
// cadence frames are fed.
func (d *Deframer) Instrument(m *telemetry.Mirror, tr *telemetry.Tracer, labels ...telemetry.Label) {
	scope := "sonet"
	for i, l := range labels {
		sep := "/"
		if i == 0 {
			sep = ":"
		}
		scope += sep + l.Value
	}
	m.Counter("sonet_frames_ok_total", "Transport frames delivered in sync.",
		func() uint64 { return d.FramesOK }, labels...)
	m.Counter("sonet_frames_errored_total", "Frames delivered despite an errored A1/A2.",
		func() uint64 { return d.FramesErrored }, labels...)
	m.Counter("sonet_b1_errors_total", "Section BIP-8 parity errors.",
		func() uint64 { return d.B1Errors }, labels...)
	m.Counter("sonet_b2_errors_total", "Line BIP-8 parity errors (SD/SF source).",
		func() uint64 { return d.B2Errors }, labels...)
	m.Counter("sonet_b3_errors_total", "Path BIP-8 parity errors.",
		func() uint64 { return d.B3Errors }, labels...)
	m.Counter("sonet_resyncs_total", "Frame-alignment reacquisitions.",
		func() uint64 { return d.ResyncCount }, labels...)
	m.Gauge("sonet_alarms", "Active defect set (sonet.Defect bits).",
		func() int64 { return int64(d.Defects.Active()) }, labels...)
	reg := m.Registry()
	raises := reg.Counter("sonet_defect_raises_total", "Defect raise transitions.", labels...)
	clears := reg.Counter("sonet_defect_clears_total", "Defect clear transitions.", labels...)
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
			tr.Emit(e.Octet, scope, name, e.Defect.String(), int64(e.Defect), int64(d.Defects.Active()))
		}
		if prev != nil {
			prev(e)
		}
	}
}
