package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixtureServer serves a registry snapshot and trace the way p5sim
// does, with counters that advance on every /metrics scrape so the
// interval mode has a delta to show.
func fixtureServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	cycles := reg.Counter("p5_cycles_total", "clock")
	busy := reg.Counter("p5_unit_busy_cycles_total", "busy", telemetry.L("unit", "framer"))
	occ := reg.Counter("p5_wire_occupied_cycles_total", "occ", telemetry.L("wire", "tx.line"))
	stall := reg.Counter("p5_wire_stalls_total", "stall", telemetry.L("wire", "tx.line"))
	xfer := reg.Counter("p5_wire_transfers_total", "xfer", telemetry.L("wire", "tx.line"))
	frames := reg.Counter("p5_tx_frames_total", "frames")
	depth := reg.Gauge("p5_tx_sorter_occupancy", "fifo")
	depth.Set(3)
	fill := reg.Histogram("p5_tx_fill_latency_cycles_dist", "fill", []int64{1, 2, 4, 8})
	fill.Observe(4)
	tr.Emit(100, "sonet", "defect-raise", "LOS", 4, 4)
	// One graded link, as an armed p5sim pair exports it: an SLO
	// alarming on frame loss, the recorder behind it with two frames
	// still in flight, and two slow frames on the trace.
	slo := telemetry.L("slo", "port0")
	for name, v := range map[string]float64{"frame_loss": 5.25, "p99_latency": 0.5, "failover": 0} {
		reg.GaugeFunc("slo_burn_rate", "burn", func() float64 { return v }, slo, telemetry.L("objective", name))
	}
	reg.GaugeFunc("slo_worst_burn_rate", "worst", func() float64 { return 5.25 }, slo)
	reg.GaugeFunc("slo_error_budget_remaining", "budget", func() float64 { return 0.4 }, slo)
	reg.GaugeFunc("slo_p99_latency_ticks", "p99", func() float64 { return 4 }, slo)
	reg.GaugeFunc("slo_alarm", "alarm", func() float64 { return 1 }, slo)
	link := telemetry.L("link", "port0_a")
	reg.Counter("flight_frames_tracked_total", "tracked", link).Add(900)
	reg.Counter("flight_frames_lost_total", "lost", link).Add(3)
	reg.Counter("flight_captures_total", "captures", link).Add(1)
	e2e := reg.Histogram("flight_e2e_latency_ticks", "e2e", []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, link)
	for i := 0; i < 895; i++ {
		e2e.Observe(int64(i % 5))
	}
	tr.Emit(5000, "link:port0_a", "slow-frame", "", 117, 40)
	tr.Emit(9000, "link:port0_a", "slow-frame", "", 903, 700)
	advance := func() {
		cycles.Add(1000)
		busy.Add(600)
		occ.Add(250)
		stall.Add(40)
		xfer.Add(900)
		frames.Add(10)
	}
	advance()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.WritePrometheus(w)
		advance()
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) { tr.WriteJSON(w) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg
}

// runOK runs p5stat with args and fails the test unless it exits 0
// with nothing on stderr; it returns what went to stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 || errb.Len() != 0 {
		t.Fatalf("p5stat %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

// TestOversizeBodyRefused: a /metrics body over the fetch bound (8 MiB)
// is an error, not a board rendered from however much of it was read.
// Alone it is exit 1 and the bound named on stderr; beside a reachable
// instance it is that instance's DOWN row, and the board of the other
// exits 0.
func TestOversizeBodyRefused(t *testing.T) {
	pad := "# " + strings.Repeat("x", 1021) + "\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "p5_up 1\n")
		for n := 0; n <= 8<<20; n += len(pad) {
			io.WriteString(w, pad)
		}
	}))
	t.Cleanup(srv.Close)
	var out, errb bytes.Buffer
	if code := run([]string{"-url", srv.URL}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "bound") {
		t.Errorf("p5stat on an oversize /metrics exited %d, stderr %q; want 1 and the bound named", code, errb.String())
	}
	good, _ := fixtureServer(t)
	got := runOK(t, "-url", srv.URL+","+good.URL)
	if !strings.Contains(got, "instance "+srv.URL) || !strings.Contains(got, "DOWN") || !strings.Contains(got, good.URL+" p5: ") {
		t.Errorf("board of an oversize and a good instance: want the first DOWN, the second's stage tables:\n%s", got)
	}
}

// TestRunRejectsUsageErrors: every argument p5stat would otherwise
// ignore is a usage error — exit 2 and a message on stderr, before any
// endpoint is scraped or file read.
func TestRunRejectsUsageErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) }))
	defer srv.Close()
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`{"events": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-url", srv.URL, "extra"}, `unexpected argument "extra"`},
		{[]string{"-url", srv.URL, "-n", "3"}, "give -interval"},
		{[]string{"-url", srv.URL, "-interval", "1ms", "-n", "-1"}, "-n -1 is negative"},
		{[]string{"-url", srv.URL, "-interval", "-1s"}, "-interval -1s is negative"},
		{[]string{"-url", " , "}, "-url names no address"},
		{[]string{"-replay", trace, "-url", srv.URL}, "-url does not apply"},
		{[]string{"-replay", trace, "-events"}, "-events does not apply"},
		{[]string{"-replay", trace, "-exemplars"}, "-exemplars does not apply"},
		{[]string{"-replay", trace, "-n", "2", "-interval", "1ms"}, "does not apply"},
		// One board for one or many instances: the mode flags are gone.
		{[]string{"-fleet", srv.URL}, "flag provided but not defined: -fleet"},
		{[]string{"-url", srv.URL, "-slo"}, "flag provided but not defined: -slo"},
		{[]string{"-url", srv.URL, "-transport"}, "flag provided but not defined: -transport"},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.want) || out.Len() != 0 {
			t.Errorf("p5stat %v: exit %d, stderr %q, stdout %q; want exit 2, stderr naming %q, no output",
				c.args, code, errb.String(), out.String(), c.want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the endpoint before the usage error", n)
	}
}

// TestSLOBoardReport: the board renders the error-budget board from the
// /metrics scrape of an instance that exports SLOs, and -exemplars the
// slow-frame events from /trace, each under its latency bucket.
func TestSLOBoardReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	got := runOK(t, "-url", srv.URL, "-exemplars")
	for _, want := range []string{
		"slo board:",
		"port0", "5.25", "40.0%", "ALARM", // burn, budget remaining, alarm flag
		"port0_a", "900", // link row: tracked
		"exemplars port0_a:",
		"117",  // resolvable frame id
		"+Inf", // overflow bucket rendered symbolically
	} {
		if !strings.Contains(got, want) {
			t.Errorf("slo report missing %q:\n%s", want, got)
		}
	}
	// The link row: instance, link, tracked, lost, in flight (900 − 3 −
	// 895 delivered), p99 and captures.
	if !rowWith(got, srv.URL, "port0_a", "900", "3", "2", "4", "1") {
		t.Errorf("no port0_a row 900 3 2 4 1:\n%s", got)
	}
	// The exemplar rows: instance, bucket, latency, frame id, arrival tick.
	if !rowWith(got, srv.URL, "64", "40", "117", "5000") || !rowWith(got, srv.URL, "+Inf", "700", "903", "9000") {
		t.Errorf("exemplar rows missing:\n%s", got)
	}
}

// rowWith reports whether some line of out is exactly the fields want.
func rowWith(out string, want ...string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.Join(strings.Fields(l), " ") == strings.Join(want, " ") {
			return true
		}
	}
	return false
}

func TestSLOWithoutExemplarsOmitsThem(t *testing.T) {
	srv, _ := fixtureServer(t)
	if got := runOK(t, "-url", srv.URL); !strings.Contains(got, "slo board:") || strings.Contains(got, "exemplars ") {
		t.Errorf("the board without -exemplars: want the slo board and no exemplar rows:\n%s", got)
	}
}

func TestSnapshotReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	got := runOK(t, "-url", srv.URL, "-events")
	for _, want := range []string{
		"p5: 1000 cycles",
		"framer", "60.0", // busy% = 600/1000
		"tx.line", "25.0", "4.0", // occ%, stall%
		"p5_tx_frames_total",
		"defect-raise", // -events trailer
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestIntervalDeltaReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	got := runOK(t, "-url", srv.URL, "-interval", time.Millisecond.String(), "-n", "2")
	// Each window advances by exactly one step, so the delta equals the
	// per-scrape increment, not the lifetime total.
	if !strings.Contains(got, "p5: 1000 cycles") {
		t.Errorf("window delta not computed:\n%s", got)
	}
	if strings.Count(got, "--- window") != 2 {
		t.Errorf("want 2 window reports:\n%s", got)
	}
	if !strings.Contains(got, "rate/s") {
		t.Errorf("interval report missing rate column:\n%s", got)
	}
	// A histogram is cumulative too: its series show the window's change
	// (no fill was timed in it), and a gauge shows its value with no rate.
	if !rowWith(got, "p5_tx_fill_latency_cycles_dist_count", "0", "0.0") ||
		!rowWith(got, "p5_tx_sorter_occupancy", "3", "-") {
		t.Errorf("interval report: want the histogram count's window delta and the gauge without a rate:\n%s", got)
	}
}

// TestStageTablesLeaveOutTheBoards: a family the SLO board or the
// transport table draws is not listed again, series by series, in the
// instance's stage tables; the p5 stage table stays whole.
func TestStageTablesLeaveOutTheBoards(t *testing.T) {
	srv, reg := fixtureServer(t)
	reg.Gauge("transport_up", "live", telemetry.L("line", "port0_a")).Set(1)
	got := runOK(t, "-url", srv.URL)
	if !strings.Contains(got, "slo board:") || !strings.Contains(got, "transport lines:") {
		t.Fatalf("want both fleet tables:\n%s", got)
	}
	for _, drawn := range []string{" flight:", " slo:", " transport:", "flight_e2e_latency_ticks_bucket", "slo_burn_rate", "transport_up{"} {
		if strings.Contains(got, drawn) {
			t.Errorf("the stage tables repeat %q, which a fleet table draws:\n%s", drawn, got)
		}
	}
	for _, kept := range []string{" p5: 1000 cycles", "p5_tx_frames_total", "p5_tx_fill_latency_cycles_dist_count"} {
		if !strings.Contains(got, kept) {
			t.Errorf("the stage tables lost %q:\n%s", kept, got)
		}
	}
}

func TestReplayTraceFile(t *testing.T) {
	tr := telemetry.NewTracer(16)
	tr.Emit(1, "link:a", "restart", "", 40, 8)
	tr.Emit(9, "link:a", "recovered", "", 1, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runOK(t, "-replay", path)
	if !strings.Contains(got, "trace: 2 events") ||
		!strings.Contains(got, "link:a/restart") ||
		!strings.Contains(got, "link:a/recovered") {
		t.Errorf("replay output:\n%s", got)
	}
}

// TestTransportTable: the board renders the transport table from a
// socket-backed run's transport_* series, and no table without them.
func TestTransportTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	lbl := telemetry.L("line", "port0_a")
	reg.Gauge("transport_up", "live", lbl).Set(1)
	reg.Counter("transport_tx_chunks_total", "tx", lbl).Add(120)
	reg.Counter("transport_rx_chunks_total", "rx", lbl).Add(118)
	reg.Counter("transport_reconnects_total", "reconn", lbl).Add(2)
	reg.Counter("transport_resets_total", "resets", lbl).Add(3)
	reg.Counter("transport_keepalive_probes_total", "probes", lbl).Add(40)
	reg.Counter("transport_keepalive_misses_total", "misses", lbl).Add(5)
	reg.Counter("transport_tx_dropped_total", "txd", lbl).Add(7)
	reg.Counter("transport_rx_dropped_total", "rxd", lbl).Add(1)
	reg.Gauge("transport_queue_depth", "q", lbl).Set(4)
	reg.Gauge("transport_queue_high_water", "qhw", lbl).Set(11)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.WritePrometheus(w)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	got := runOK(t, "-url", srv.URL)
	i := strings.Index(got, "transport lines:")
	if i < 0 {
		t.Fatalf("no transport table:\n%s", got)
	}
	row := ""
	for _, line := range strings.Split(got[i:], "\n") {
		if strings.Contains(line, "port0_a") {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatalf("no port0_a row:\n%s", got)
	}
	for _, want := range []string{"up", "120", "118", "2", "3", "40", "5", "7", "1", "4", "11"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q missing %q", row, want)
		}
	}

	// Without any transport series there is no table.
	empty := telemetry.NewRegistry()
	emux := http.NewServeMux()
	emux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		empty.WritePrometheus(w)
	})
	esrv := httptest.NewServer(emux)
	defer esrv.Close()
	if got := runOK(t, "-url", esrv.URL); strings.Contains(got, "transport lines:") || !strings.Contains(got, "instance "+esrv.URL) {
		t.Errorf("board of an instance with no transport series: want its instance row and no transport table:\n%s", got)
	}
}
