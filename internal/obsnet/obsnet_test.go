package obsnet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// fakeInstance serves metrics as one p5sim process's /metrics, the one
// document a fleet scrape reads, and counts the requests it answers.
func fakeInstance(t *testing.T, metrics func() string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(metrics()))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func text(s string) func() string { return func() string { return s } }

// measuredLine returns the listening end of a loopback UDP pair once it
// has measured one-way latency from the dialler's data and probe round
// trips of its own, with the line quiet again.
func measuredLine(t *testing.T) *transport.UDP {
	t.Helper()
	cfg := transport.Config{KeepalivePeriod: 4}
	ln, err := transport.NewUDP(transport.UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dl, err := transport.NewUDP(transport.UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for now := int64(1); ; now++ {
		if lat := ln.Latency(); lat.Samples >= 4 && lat.RTTSamples >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no latency measured on loopback: %+v", ln.Latency())
		}
		ln.Tick(now)
		dl.Tick(now)
		for i := 0; i < 16; i++ {
			dl.Send([]byte("data"))
		}
		ln.Recv(nil)
		dl.Recv(nil)
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond) // let the last replies land
	ln.Recv(nil)
	dl.Recv(nil)
	return ln
}

// row returns the transport-table row of board naming instance and line.
func row(t *testing.T, board, instance, line string) []string {
	t.Helper()
	for _, l := range strings.Split(board, "\n") {
		f := strings.Fields(l)
		if len(f) > 2 && f[0] == instance && f[1] == line {
			return f
		}
	}
	t.Fatalf("no %s %s row:\n%s", instance, line, board)
	return nil
}

const sloA = `slo_worst_burn_rate{slo="frame_loss"} 0.25
slo_alarm{slo="frame_loss"} 0
`

func TestScrapeAndFleetBoard(t *testing.T) {
	// Instance A: a measured socket line, a flight recorder and the
	// runtime exporter, as a p5sim -flight -telemetry socket half has.
	ln := measuredLine(t)
	reg := telemetry.NewRegistry()
	transport.Instrument(reg, "port0_a", ln)
	flight.NewRecorder(reg, "port0_a", flight.Config{})
	prof.ExportRuntime(reg)
	srvA, _ := fakeInstance(t, func() string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String() + sloA
	})
	// Instance B: its line is down and its SLO alarms.
	srvB, _ := fakeInstance(t, text(`transport_up{line="port0_z"} 0
transport_wire_version{line="port0_z"} 2
slo_worst_burn_rate{slo="frame_loss"} 14.5
slo_alarm{slo="frame_loss"} 1
`))

	addrA := strings.TrimPrefix(srvA.URL, "http://")
	instances := ScrapeAll([]string{addrA, srvB.URL, "127.0.0.1:1"}, false)
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
	lat := ln.Latency()
	p50, ok := telemetry.SeriesQuantile(merged, "transport_oneway_latency_us", 0.50)
	if !ok || p50 != lat.OneWayP50US {
		t.Fatalf("fleet p50 = %d ok=%v, want %d", p50, ok, lat.OneWayP50US)
	}

	var board strings.Builder
	if err := WriteBoard(&board, instances, nil, 0, false); err != nil {
		t.Fatalf("WriteBoard: %v", err)
	}
	out := board.String()
	for _, want := range []string{
		addrA, "healthy", "DEGRADED", "DOWN", "wire v2",
		"flight,latency", "frame_loss", "14.500", "ALARM",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet board missing %q:\n%s", want, out)
		}
	}
	// Exactly one instance alarms on frame_loss.
	if got := strings.Count(out, "ALARM"); got != 1 {
		t.Fatalf("ALARM count = %d, want 1\n%s", got, out)
	}
	// The table shows the line's own measurement: columns 6-8 are the
	// one-way p50/p99 and the RTT p50.
	ra := row(t, out, addrA, "port0_a")
	if got, want := ra[5:8], []string{fmt.Sprint(lat.OneWayP50US), fmt.Sprint(lat.OneWayP99US), fmt.Sprint(lat.RTTP50US)}; !reflect.DeepEqual(got, want) {
		t.Errorf("port0_a latency columns %v, want Latency() %v (%+v)\n%s", got, want, lat, out)
	}
	if rb := row(t, out, srvB.URL, "port0_z"); rb[2] != "DOWN" || rb[5] != "-" {
		t.Errorf("instance B row %v: want DOWN and no latency", rb)
	}
}

func TestFleetBoardVersionSkew(t *testing.T) {
	srvA, _ := fakeInstance(t, text(`transport_wire_version{line="port0_a"} 2`+"\n"))
	srvB, _ := fakeInstance(t, text(`transport_wire_version{line="port0_z"} 1`+"\n"))

	var board strings.Builder
	if err := WriteBoard(&board, ScrapeAll([]string{srvA.URL, srvB.URL}, false), nil, 0, false); err != nil {
		t.Fatalf("WriteBoard: %v", err)
	}
	if !strings.Contains(board.String(), "wire version skew") {
		t.Fatalf("no skew warning:\n%s", board.String())
	}
}

// TestScrapeIsOneRequest: a fleet scrape reads each instance's state
// from one document, so the board costs every instance one request.
func TestScrapeIsOneRequest(t *testing.T) {
	srv, hits := fakeInstance(t, text(`transport_up{line="port0_a"} 1`+"\n"))
	in := ScrapeAll([]string{srv.URL}, false)
	if err := WriteBoard(io.Discard, in, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d requests to one instance, want 1", n)
	}
	if in[0].Err != nil {
		t.Fatal(in[0].Err)
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
