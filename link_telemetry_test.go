package gigapos

import (
	"testing"

	"repro/internal/lcp"
	"repro/internal/telemetry"
)

// TestLinkInstrumentTelemetry brings an instrumented pair up, cuts the
// line to provoke the supervisor, and checks the exported series and
// trace events.
func TestLinkInstrumentTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(512)
	cfg := LinkConfig{
		EchoPeriod: 4, Supervise: true, RetryMin: 4, RetryMax: 64,
		WantVJ: true, AllowVJ: true,
	}
	cfg.Magic, cfg.IPAddr = 0x1111, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0x2222, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)
	o := Observation{Registry: reg, Tracer: tr}
	a.Observe(o, "a")
	b.Observe(o, "b")

	a.Open()
	b.Open()
	a.Up()
	b.Up()
	now := int64(0)
	run := func(ticks int, cut bool) {
		for i := 0; i < ticks; i++ {
			now++
			tick(a, b, now, cut)
		}
	}
	run(200, false)
	if !a.Opened() || !b.Opened() {
		t.Fatal("links did not open")
	}
	// A non-TCP datagram exercises the VJ TYPE_IP path.
	if err := a.SendIPv4([]byte{0x45, 0, 0, 20, 0x11, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	run(5, false)

	snap := seriesValues(reg)
	get := func(series string) float64 {
		v, ok := snap[series]
		if !ok {
			t.Fatalf("series %s missing", series)
		}
		return v
	}
	if v := get(`link_lcp_state{link="a"}`); v != float64(lcp.Opened) {
		t.Errorf("lcp state gauge = %v, want %d", v, lcp.Opened)
	}
	if get(`link_lcp_transitions_total{link="a"}`) == 0 {
		t.Error("no LCP transitions counted")
	}
	if get(`link_rx_frames_total{link="b"}`) == 0 {
		t.Error("no rx frames counted")
	}
	if get(`link_vj_out_ip_total{link="a"}`) == 0 {
		t.Error("VJ TYPE_IP counter not exported")
	}

	// Cut the line: echoes go unanswered, the link drops, and the
	// supervisor retries until the line heals.
	run(40, true)
	if a.Opened() {
		t.Fatal("link survived the cut")
	}
	run(400, false)
	if !a.Opened() {
		t.Fatal("supervisor did not recover the link")
	}
	snap = seriesValues(reg)
	for _, series := range []string{
		`link_echo_timeouts_total{link="a"}`,
		`link_supervisor_restarts_total{link="a"}`,
		`link_supervisor_recoveries_total{link="a"}`,
	} {
		if v, ok := snap[series]; !ok || v == 0 {
			t.Errorf("%s = %v (present=%v), want nonzero", series, v, ok)
		}
	}

	want := map[string]bool{"lcp-transition": false, "echo-timeout": false, "restart": false, "recovered": false}
	for _, e := range tr.Events() {
		if _, ok := want[e.Name]; ok && e.Scope == "link:a" {
			want[e.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace event %q never emitted for link:a", name)
		}
	}
}

// seriesValues reads reg's series into a map of full series name
// (name plus label block) to value.
func seriesValues(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Series() {
		out[s.Full] = s.Value
	}
	return out
}
