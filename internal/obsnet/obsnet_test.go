package obsnet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// fakeInstance serves the two scrape surfaces one p5sim process exposes.
func fakeInstance(t *testing.T, metrics string, doc transport.StatusDoc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(metrics))
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(doc)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

const metricsA = `# HELP transport_oneway_latency_us one-way latency
# TYPE transport_oneway_latency_us histogram
transport_oneway_latency_us_bucket{line="port0_a",le="100"} 10
transport_oneway_latency_us_bucket{line="port0_a",le="250"} 12
transport_oneway_latency_us_bucket{line="port0_a",le="+Inf"} 12
transport_oneway_latency_us_sum{line="port0_a"} 1400
transport_oneway_latency_us_count{line="port0_a"} 12
slo_worst_burn_rate{slo="frame_loss"} 0.25
slo_alarm{slo="frame_loss"} 0
`

const metricsB = `slo_worst_burn_rate{slo="frame_loss"} 14.5
slo_alarm{slo="frame_loss"} 1
`

func statusDoc(healthy bool, latency *transport.Latency) transport.StatusDoc {
	return transport.StatusDoc{
		Healthy: healthy,
		Info: transport.BoardInfo{
			Start:          "2026-08-09T00:00:00Z",
			UptimeSeconds:  42,
			WireVersion:    transport.WireVersion,
			FlightArmed:    true,
			LatencyTracing: true,
		},
		Transports: []transport.TransportStatus{{
			Name:    "port0_a",
			Up:      healthy,
			Stats:   transport.Stats{TxChunks: 100, RxChunks: 99, RxDropped: 1},
			Latency: latency,
		}},
	}
}

func TestScrapeAndFleetBoard(t *testing.T) {
	latA := &transport.Latency{Samples: 12, OneWayP50US: 100, OneWayP99US: 250, RTTSamples: 4, RTTP50US: 180}
	srvA := fakeInstance(t, metricsA, statusDoc(true, latA))
	srvB := fakeInstance(t, metricsB, statusDoc(false, nil))

	addrA := strings.TrimPrefix(srvA.URL, "http://")
	instances := ScrapeAll([]string{addrA, srvB.URL, "127.0.0.1:1"})
	if len(instances) != 3 {
		t.Fatalf("instances = %d, want 3", len(instances))
	}
	a, b, dead := instances[0], instances[1], instances[2]
	if a.Err != nil || b.Err != nil {
		t.Fatalf("scrape errors: %v / %v", a.Err, b.Err)
	}
	if dead.Err == nil {
		t.Fatalf("scrape of dead address succeeded")
	}
	if !a.Status.Healthy || a.Status.Info.WireVersion != transport.WireVersion {
		t.Fatalf("instance A status = %+v", a.Status)
	}
	if b.Status.Healthy {
		t.Fatalf("instance B reported healthy")
	}
	for _, s := range a.Series {
		if s.Label("instance") != addrA {
			t.Fatalf("series %q missing instance label: %+v", s.Name, s.Labels)
		}
	}

	// The merged fleet set — every scraped instance's labelled series,
	// concatenated — answers quantile queries across instances.
	var merged []telemetry.Series
	for _, in := range instances {
		merged = append(merged, in.Series...)
	}
	p50, ok := telemetry.SeriesQuantile(merged, "transport_oneway_latency_us", 0.50)
	if !ok || p50 != 100 {
		t.Fatalf("fleet p50 = %d ok=%v, want 100", p50, ok)
	}

	var board strings.Builder
	if err := WriteFleetBoard(&board, instances); err != nil {
		t.Fatalf("WriteFleetBoard: %v", err)
	}
	out := board.String()
	for _, want := range []string{
		addrA, "healthy", "DEGRADED", "DOWN", "wire v2",
		"flight,latency", "port0_a", "100", "250", "180",
		"frame_loss", "14.500", "ALARM",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet board missing %q:\n%s", want, out)
		}
	}
	// Exactly one instance alarms on frame_loss.
	if got := strings.Count(out, "ALARM"); got != 1 {
		t.Fatalf("ALARM count = %d, want 1\n%s", got, out)
	}
}

func TestFleetBoardVersionSkew(t *testing.T) {
	docOld := statusDoc(true, nil)
	docOld.Info.WireVersion = 1
	srvA := fakeInstance(t, "", statusDoc(true, nil))
	srvB := fakeInstance(t, "", docOld)

	var board strings.Builder
	if err := WriteFleetBoard(&board, ScrapeAll([]string{srvA.URL, srvB.URL})); err != nil {
		t.Fatalf("WriteFleetBoard: %v", err)
	}
	if !strings.Contains(board.String(), "wire version skew") {
		t.Fatalf("no skew warning:\n%s", board.String())
	}
}

func joinPair() (*flight.Capture, *flight.Capture) {
	a := &flight.Capture{
		Link: "linkA", Reason: "transport-los", Seq: 1, Now: 1000,
		Incident: 0xBEEF, TickOffset: 0, ClockOffsetNS: 0,
		Events: []telemetry.Event{
			{Seq: 1, At: 990, Scope: "supervisor", Name: "raise", Detail: "los"},
			{Seq: 2, At: 1000, Scope: "flight", Name: "capture"},
		},
	}
	b := &flight.Capture{
		Link: "linkB", Reason: "transport-los", Seq: 1, Now: 1210,
		Incident: 0xBEEF, FromPeer: true, TickOffset: -200, ClockOffsetNS: -5_000_000,
		Events: []telemetry.Event{
			{Seq: 9, At: 1195, Scope: "supervisor", Name: "raise", Detail: "los", V1: 4},
			{Seq: 10, At: 1210, Scope: "flight", Name: "capture"},
		},
	}
	return a, b
}

func TestJoinAlignsTickDomains(t *testing.T) {
	a, b := joinPair()
	j, err := Join(a, b)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// Only B carries an estimate: its peer-minus-local is A-B = -200, so
	// B-A = +200 and B events shift back by 200 into A's domain.
	if j.TickDelta != 200 {
		t.Fatalf("TickDelta = %d, want 200", j.TickDelta)
	}
	if j.ClockDeltaNS != 5_000_000 {
		t.Fatalf("ClockDeltaNS = %d, want 5ms", j.ClockDeltaNS)
	}
	if len(j.Timeline) != 4 {
		t.Fatalf("timeline length = %d, want 4", len(j.Timeline))
	}
	// Aligned order: A@990, B@1195-200=995, A@1000, B@1210-200=1010.
	wantSides := []string{"A", "B", "A", "B"}
	wantAt := []int64{990, 995, 1000, 1010}
	for i, e := range j.Timeline {
		if e.Side != wantSides[i] || e.AlignedAt != wantAt[i] {
			t.Fatalf("timeline[%d] = %s@%d, want %s@%d", i, e.Side, e.AlignedAt, wantSides[i], wantAt[i])
		}
	}

	var out strings.Builder
	if err := j.WriteTimeline(&out); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	for _, want := range []string{
		"incident 000000000000beef", "linkA", "linkB",
		"peer-triggered", "tick delta (B-A) +200", "los [4 0]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("timeline missing %q:\n%s", want, out.String())
		}
	}
}

func TestJoinBothSidesEstimated(t *testing.T) {
	a, b := joinPair()
	a.TickOffset = 220 // A's peer-minus-local: B-A = +220
	j, err := Join(a, b)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// Midpoint of +220 and -(-200): (220 - (-200))/2 = 210.
	if j.TickDelta != 210 {
		t.Fatalf("TickDelta = %d, want 210", j.TickDelta)
	}
}

func TestJoinRejectsMismatchedIncidents(t *testing.T) {
	a, b := joinPair()
	b.Incident = 0xDEAD
	if _, err := Join(a, b); err == nil {
		t.Fatalf("Join accepted mismatched incidents")
	}
	a.Incident, b.Incident = 0, 0
	if _, err := Join(a, b); err == nil {
		t.Fatalf("Join accepted uncorrelated captures")
	}
}
