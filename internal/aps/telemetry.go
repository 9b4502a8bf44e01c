package aps

import "repro/internal/telemetry"

// Instrument declares the controller's switching record on m as the
// aps_* family labelled {link=link} — both ends of a protected pair
// share a registry, so the label is what keeps their records apart —
// and emits a structured trace event for every selector movement,
// chained ahead of any existing OnSwitch subscriber. tr may be nil to
// disable tracing. The caller's m.Sync refreshes the mirrors; call it
// at the control-plane cadence.
func (c *Controller) Instrument(m *telemetry.Mirror, tr *telemetry.Tracer, link string) {
	lbl := telemetry.L("link", link)
	m.Counter("aps_switches_total", "Protection-selector movements.",
		func() uint64 { return c.Switches }, lbl)
	m.Counter("aps_to_protect_total", "Selector movements onto the protection line.",
		func() uint64 { return c.ToProtect }, lbl)
	m.Counter("aps_to_working_total", "Selector movements back to the working line.",
		func() uint64 { return c.ToWorking }, lbl)
	m.Counter("aps_remote_wins_total", "Evaluations won by the far-end K1 request.",
		func() uint64 { return c.RemoteWins }, lbl)
	m.Gauge("aps_active", "Selected line: 0 working, 1 protect.",
		func() int64 { return int64(c.Active()) }, lbl)
	m.Gauge("aps_request", "Transmitted K1 request code.", func() int64 {
		r, _ := ParseK1(c.txK1)
		return int64(r)
	}, lbl)
	// Switch-completion time in frame times (125 µs each): the GR-253
	// budget is 50 ms = 400 frames, so the buckets straddle it.
	durations := m.Registry().Histogram("aps_switch_duration",
		"Trigger-to-selector-movement time (frame times; 400 = the 50 ms budget).",
		[]int64{1, 4, 16, 64, 200, 400, 800}, lbl)

	prev := c.OnSwitch
	c.OnSwitch = func(e SwitchEvent) {
		durations.Observe(e.Duration)
		if tr != nil {
			origin := "local"
			if e.Remote {
				origin = "remote"
			}
			tr.Emit(e.Now, "aps:"+link, "switch", e.From.String()+"->"+e.To.String()+
				" on "+e.Trigger.String()+" ("+origin+")", int64(e.To), e.Duration)
		}
		if prev != nil {
			prev(e)
		}
	}
}
