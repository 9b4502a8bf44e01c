package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/scenario"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// scrapeMetrics GETs base+path and returns the body.
func scrapeGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// seriesMap scrapes /metrics and parses it into series name → value.
func seriesMap(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, body := scrapeGet(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	parsed, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	out := make(map[string]float64, len(parsed))
	for _, s := range parsed {
		out[s.Full] = s.Value
	}
	return out
}

// TestLoopbackTelemetryScrape is the acceptance path: a framed burst
// with injected line errors, then an HTTP scrape of /metrics must show
// nonzero per-stage occupancy, stall, and FCS-error series, and the
// debug endpoints must answer.
func TestLoopbackTelemetryScrape(t *testing.T) {
	var series map[string]float64
	cfg := simConfig{
		width: 8, frames: 20, size: "imix", density: 0.02,
		errRate: 0.001, seed: 7,
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			if code, body := scrapeGet(t, base, "/debug/vars"); code != http.StatusOK {
				t.Errorf("/debug/vars status %d", code)
			} else if !bytes.Contains(body, []byte(`"p5sim"`)) {
				t.Error("/debug/vars does not include the published registry")
			}
			if code, _ := scrapeGet(t, base, "/debug/pprof/"); code != http.StatusOK {
				t.Errorf("/debug/pprof/ status %d", code)
			}
			if code, _ := scrapeGet(t, base, "/trace"); code != http.StatusOK {
				t.Errorf("/trace status %d", code)
			}
		},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	if !strings.Contains(out.String(), "telemetry        : http://") {
		t.Error("report does not mention the telemetry endpoint")
	}
	for _, name := range []string{
		`p5_cycles_total`,
		`p5_wire_occupied_cycles_total{wire="tx.line"}`,
		`p5_wire_stalls_total{wire="tx.body"}`,
		`p5_unit_busy_cycles_total{unit="framer"}`,
		`p5_tx_frames_total`,
		`p5_tx_stall_cycles_total`,
		`p5_rx_fcs_errors_total`,
		`p5_line_words_total`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
}

// TestSONETTelemetryScrape runs the -sonet pipeline with byte slips and
// a line cut, and checks the section/defect series and trace events
// appear alongside the per-direction pipeline series.
func TestSONETTelemetryScrape(t *testing.T) {
	var series map[string]float64
	var trace []telemetry.Event
	cfg := simConfig{
		width: 8, frames: 20, size: "imix", density: 0.02, seed: 3,
		sonetMode: true,
		faults: fault.RandomConfig{
			SlipEvery:  4000,
			LOSWindows: 1,
			LOSLen:     10 * sonet.STM1.FrameBytes(),
		},
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			code, body := scrapeGet(t, base, "/trace")
			if code != http.StatusOK {
				t.Fatalf("/trace status %d", code)
			}
			var err error
			trace, err = telemetry.ReadEvents(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decode /trace: %v", err)
			}
		},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	for _, name := range []string{
		`p5tx_cycles_total`,
		`p5tx_tx_frames_total`,
		`p5tx_unit_busy_cycles_total{unit="escape_gen"}`,
		`p5rx_rx_frames_good_total`,
		`p5rx_unit_busy_cycles_total{unit="delineator"}`,
		`sonet_frames_ok_total`,
		`sonet_resyncs_total`,
		`sonet_defect_raises_total`,
		`sonet_defect_clears_total`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
	raises := 0
	for _, e := range trace {
		if e.Scope == "sonet" && e.Name == "defect-raise" {
			raises++
		}
	}
	if raises == 0 {
		t.Error("no defect-raise trace events from the line cut")
	}
}

// TestProtectTelemetryScrape is the protection acceptance path: the
// -protect failover scenario must expose the APS switch counter and
// the switch-duration histogram through /metrics, emit aps switch
// trace events, and report a hitless run (no LCP renegotiation).
func TestProtectTelemetryScrape(t *testing.T) {
	var series map[string]float64
	var trace []telemetry.Event
	cfg := simConfig{
		protectMode: true, cutFrames: 30,
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			code, body := scrapeGet(t, base, "/trace")
			if code != http.StatusOK {
				t.Fatalf("/trace status %d", code)
			}
			var err error
			trace, err = telemetry.ReadEvents(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decode /trace: %v", err)
			}
		},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	// Both ends are instrumented into the one registry and keep their
	// own record: the bidirectional group moves both selectors, twice.
	for _, end := range []string{"prot_a", "prot_z"} {
		if got := series[`aps_switches_total{link="`+end+`"}`]; got != 2 {
			t.Errorf("aps_switches_total{link=%q} = %v, want 2 (failover + revert)", end, got)
		}
	}
	if got := series[`aps_switch_duration_count{link="prot_z"}`]; got != 2 {
		t.Errorf("aps_switch_duration_count = %v, want 2", got)
	}
	// Both switches completed inside the 50 ms budget bucket.
	if got := series[`aps_switch_duration_bucket{link="prot_z",le="400"}`]; got != 2 {
		t.Errorf(`duration bucket le=400 = %v, want 2`, got)
	}
	for _, name := range []string{
		`aps_to_protect_total{link="prot_z"}`, `aps_to_working_total{link="prot_z"}`,
		`link_working_b2_errors_total{link="prot_z"}`, // the cut corrupts line parity before LOS bites
		`link_protect_frames_ok_total{link="prot_z"}`,
		`link_protect_frames_ok_total{link="prot_a"}`,
		`link_standby_discarded_octets_total{link="prot_z"}`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
	// Only the a→b working line was cut: a's own receive side stayed clean.
	if got := series[`link_working_b2_errors_total{link="prot_a"}`]; got != 0 {
		t.Errorf(`link_working_b2_errors_total{link="prot_a"} = %v, want 0 (b's errors leaked into a's series)`, got)
	}
	if got := series[`aps_active{link="prot_z"}`]; got != 0 {
		t.Errorf("aps_active = %v, want 0 (reverted to working)", got)
	}
	switches := 0
	for _, e := range trace {
		if e.Scope == "aps:prot_z" && e.Name == "switch" {
			switches++
		}
	}
	if switches != 2 {
		t.Errorf("aps:prot_z switch trace events = %d, want 2", switches)
	}
	if !strings.Contains(out.String(), "lcp-renegotiations=0") {
		t.Errorf("report does not show a hitless run:\n%s", out.String())
	}
}

// TestProtectFlightScrape re-runs the failover scenario with the
// flight recorder armed: the APS switch must dump exactly one capture
// per selector movement (decodable from disk), the SLO burn gauges and
// latency histograms must appear in /metrics, and /slo must serve the
// error-budget board.
func TestProtectFlightScrape(t *testing.T) {
	dir := t.TempDir()
	var series map[string]float64
	var board flight.BoardJSON
	cfg := simConfig{
		protectMode: true, cutFrames: 30,
		telemetryAddr: "127.0.0.1:0",
		flightDir:     dir,
		scrape: func(base string) {
			series = seriesMap(t, base)
			code, body := scrapeGet(t, base, "/slo")
			if code != http.StatusOK {
				t.Fatalf("/slo status %d", code)
			}
			var err error
			board, err = flight.ReadBoard(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decode /slo: %v", err)
			}
		},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	for _, name := range []string{
		`flight_frames_tracked_total{link="prot_a"}`,
		`flight_e2e_latency_ticks_count{link="prot_a"}`,
		`slo_worst_burn_rate{slo="prot_z"}`,
		`slo_error_budget_remaining{slo="prot_z"}`,
		`flight_captures_total{link="prot_z"}`,
	} {
		if _, ok := series[name]; !ok {
			t.Errorf("series %s missing from /metrics", name)
		}
	}
	if got := series[`flight_captures_total{link="prot_z"}`]; got != 2 {
		t.Errorf("captures = %v, want 2 (failover + revert)", got)
	}
	var slos, links int
	for _, s := range board.SLOs {
		if s.Name == "prot_z" {
			slos++
		}
	}
	for _, l := range board.Links {
		if l.Link == "prot_a" && l.Tracked > 0 {
			links++
		}
	}
	if slos != 1 || links != 1 {
		t.Errorf("/slo board missing entries: slos=%d links=%d\n%+v", slos, links, board)
	}
	// Both ends dump on each selector movement; check the receiving
	// side's two files decode back losslessly.
	files, err := filepath.Glob(filepath.Join(dir, "prot_z-*.p5fr"))
	if err != nil || len(files) != 2 {
		t.Fatalf("prot_z capture files = %v (err=%v), want 2", files, err)
	}
	for _, f := range files {
		c, err := flight.ReadFile(f)
		if err != nil {
			t.Errorf("decode %s: %v", f, err)
			continue
		}
		if c.Reason != "aps-switch" || len(c.Events) == 0 {
			t.Errorf("%s: reason=%q events=%d, want aps-switch with events", f, c.Reason, len(c.Events))
		}
	}
	if !strings.Contains(out.String(), "flight captures  : aps-switch=2") {
		t.Errorf("report missing the flight capture line:\n%s", out.String())
	}
}

// TestEngineModeScrape runs the -engine line card and checks the report
// plus the exported aggregate series.
func TestEngineModeScrape(t *testing.T) {
	var series map[string]float64
	var board flight.BoardJSON
	cfg := simConfig{
		engineLinks: 4, engineShards: 2,
		frames: 200, size: "256",
		telemetryAddr: "127.0.0.1:0",
		flightDir:     t.TempDir(),
		scrape: func(base string) {
			series = seriesMap(t, base)
			code, body := scrapeGet(t, base, "/slo")
			if code != http.StatusOK {
				t.Fatalf("/slo status %d", code)
			}
			var err error
			board, err = flight.ReadBoard(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("decode /slo: %v", err)
			}
		},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	for _, name := range []string{
		`engine_datagrams_total{engine="linecard"}`,
		`engine_payload_bytes_total{engine="linecard"}`,
		`engine_line_bytes_total{engine="linecard"}`,
		`engine_steps_total{engine="linecard"}`,
		`engine_links{engine="linecard"}`,
		`engine_shards{engine="linecard"}`,
		`flight_frames_tracked_total{link="port0_a"}`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
	// The burn gauge is present and zero on a clean run.
	if v, ok := series[`slo_worst_burn_rate{slo="port0_z"}`]; !ok || v != 0 {
		t.Errorf(`slo_worst_burn_rate{slo="port0_z"} = %v (present=%v), want 0`, v, ok)
	}
	// Every end of every pair records, and every end is graded on what
	// it receives.
	if len(board.SLOs) != 8 || len(board.Links) != 8 {
		t.Errorf("/slo board: %d slos %d links, want 8/8", len(board.SLOs), len(board.Links))
	}
	for _, l := range board.Links {
		if l.Lost != 0 {
			t.Errorf("clean engine run lost %d frames on %s", l.Lost, l.Link)
		}
	}
	report := out.String()
	for _, want := range []string{
		"4 link pairs on 2 shard workers",
		"rx-errors=0",
		"frames/s",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestEngineProfMode runs the -engine line card with the performance
// observatory armed: the profile files land in the directory, the
// report carries the stage breakdown, and the prof_* and runtime_*
// series join the exposition.
func TestEngineProfMode(t *testing.T) {
	profDir := t.TempDir()
	var series map[string]float64
	cfg := simConfig{
		engineLinks: 4, engineShards: 2,
		frames: 200, size: "256",
		telemetryAddr: "127.0.0.1:0",
		profDir:       profDir,
		scrape:        func(base string) { series = seriesMap(t, base) },
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if series == nil {
		t.Fatal("scrape hook never ran")
	}
	for _, name := range []string{
		`prof_stage_ns_total{engine="linecard",shard="0",stage="encode"}`,
		`prof_stage_ns_total{engine="linecard",shard="1",stage="tokenize"}`,
		`prof_stage_ns_total{engine="linecard",shard="0",stage="decode"}`,
		`prof_stage_ns_total{engine="linecard",shard="1",stage="queue"}`,
		`prof_barrier_wait_ns_total{engine="linecard",shard="0"}`,
		`prof_sampled_steps_total{engine="linecard"}`,
		`runtime_goroutines`,
		`runtime_heap_bytes`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
	report := out.String()
	for _, want := range []string{
		"stage profile    : 2 shards,",
		"tokenize :",
		"decode   :", // stamped inside Link.Input: the one table, finer rows
		"queue    :",
		"barrier  :",
		"profiles         : 6 written to " + profDir,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "mutex.pprof",
		"block.pprof", "allocs.pprof", "goroutine.pprof"} {
		st, err := os.Stat(filepath.Join(profDir, f))
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if st.Size() == 0 {
			t.Errorf("%s: empty profile", f)
		}
	}
}

// TestRunRejectsBadFlags pins the usage-error path.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(simConfig{width: 16, frames: 1, size: "imix"}, &out); err == nil {
		t.Fatal("width 16 accepted")
	} else if _, ok := err.(usageError); !ok {
		t.Fatalf("want usageError, got %T", err)
	}
	if err := run(simConfig{width: 8, frames: 1, size: "bogus"}, &out); err == nil {
		t.Fatal("bad size accepted")
	}
	if err := run(simConfig{engineLinks: 2, frames: 1, size: "bogus"}, &out); err == nil {
		t.Fatal("bad engine size accepted")
	}
	// A flag set in a mode that never reads it is refused, not ignored:
	// -flight used to leave an empty directory behind the default and
	// -sonet modes without a word.
	dir := filepath.Join(t.TempDir(), "captures")
	stall := netConfig{proto: "udp", stallFrom: 10, stallTo: 20}
	for _, c := range []struct {
		cfg  simConfig
		want string
	}{
		{simConfig{width: 32, frames: 1, size: "imix", flightDir: dir}, "-flight needs one of -protect, -engine, -listen/-dial, -scenario"},
		{simConfig{width: 32, frames: 1, size: "imix", sonetMode: true, flightDir: dir}, "-flight needs"},
		{simConfig{width: 32, frames: 1, size: "imix", engineShards: 2}, "-shards needs one of -engine, -listen/-dial"},
		{simConfig{protectMode: true, net: stall}, "-net-stall/-net-blackout needs one of -listen/-dial"},
	} {
		err := run(c.cfg, &out)
		if _, ok := err.(usageError); !ok || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want a usageError naming %q", c.cfg, err, c.want)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a refused -flight still created %s", dir)
	}
}

// TestRunRejectsModeCombinations: two mode flags that do not combine are
// a usage error naming both, not a silent pick of the first; -engine with
// -sonet (and -listen/-dial with -engine, net_test.go) are the pairings
// that mean something.
func TestRunRejectsModeCombinations(t *testing.T) {
	net := netConfig{listen: "127.0.0.1:0", proto: "udp"}
	for _, c := range []struct {
		cfg  simConfig
		want string // "" = accepted
	}{
		{simConfig{protectMode: true, sonetMode: true}, "-protect and -sonet"},
		{simConfig{engineLinks: 4, protectMode: true}, "-engine and -protect"},
		{simConfig{scenarioFile: "x.json", engineLinks: 2}, "-scenario and -engine"},
		{simConfig{scenarioFile: "x.json", sonetMode: true}, "-scenario and -sonet"},
		{simConfig{net: net, protectMode: true}, "-listen/-dial and -protect"},
		{simConfig{net: net, engineLinks: 1, sonetMode: true}, "-listen/-dial and -sonet"},
		{simConfig{engineLinks: 2, sonetMode: true, frames: 20, size: "64"}, ""},
	} {
		var out bytes.Buffer
		err := run(c.cfg, &out)
		if c.want == "" {
			if err != nil {
				t.Errorf("%+v: %v", c.cfg, err)
			} else if !strings.Contains(out.String(), "640/640 datagrams delivered, lcp-renegotiations=0") {
				t.Errorf("-engine 2 -sonet report:\n%s", out.String())
			}
			continue
		}
		if _, ok := err.(usageError); !ok || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want a usageError naming %q", c.cfg, err, c.want)
		}
	}
}

// TestScenarioMode runs the committed fiber-cut drill through the
// -scenario path (PASS, report names the drill) and a deliberately
// impossible drill (FAIL, non-nil error, report points at the .p5fr
// captures).
func TestScenarioMode(t *testing.T) {
	var out bytes.Buffer
	cfg := simConfig{
		scenarioFile: filepath.Join("..", "..", "scenarios", "fiber-cut.json"),
		flightDir:    t.TempDir(),
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("fiber-cut drill failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{`Chaos drill "fiber-cut"`, "verdict          : PASS"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// An impossible drill: assert zero switches across a fibre cut.
	bad := filepath.Join(t.TempDir(), "impossible.json")
	js := `{
	  "name": "impossible", "ring": {"nodes": 4},
	  "circuits": [{"name": "c0", "a": 0, "b": 2, "slot": 0}],
	  "duration": 600,
	  "events": [{"at": 100, "action": "cut", "between": [0, 1]}],
	  "assert": {"circuits": [{"circuit": "c0", "switches": 0}]}
	}`
	if err := os.WriteFile(bad, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run(simConfig{scenarioFile: bad, flightDir: t.TempDir()}, &out)
	if err == nil {
		t.Fatalf("impossible drill passed:\n%s", out.String())
	}
	if _, ok := err.(usageError); ok {
		t.Fatalf("assertion failure reported as usage error: %v", err)
	}
	report = out.String()
	for _, want := range []string{"verdict          : FAIL", "scenario-fail", ".p5fr"} {
		if !strings.Contains(report, want) {
			t.Errorf("failure report missing %q:\n%s", want, report)
		}
	}

	// A missing file is a usage error (exit 2), not a drill failure.
	if err := run(simConfig{scenarioFile: "no-such.json"}, &out); err == nil {
		t.Fatal("missing scenario file accepted")
	} else if _, ok := err.(usageError); !ok {
		t.Fatalf("want usageError for missing file, got %T", err)
	}
}

// TestReportsSayWhenCapturesWereNotWritten: a drill whose capture
// directory cannot be written still runs and grades, but every report
// that names capture files gains a line saying how many are missing —
// and stays silent (reports byte-identical) when every write landed.
func TestReportsSayWhenCapturesWereNotWritten(t *testing.T) {
	// A regular file where the directory should be: unwritable for any
	// user, root included.
	notDir := filepath.Join(t.TempDir(), "captures")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(filepath.Join("..", "..", "scenarios", "fiber-cut.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(scenario.RunConfig{CaptureDir: notDir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Errorf("drill failed for want of a capture directory: %+v", res.Failures)
	}
	if len(res.CapturePaths) != 0 {
		t.Fatalf("drill names capture files under an unwritable directory: %v", res.CapturePaths)
	}
	var out bytes.Buffer
	reportCaptureWriteErrors(&out, res.Board.Links, notDir)
	if !strings.Contains(out.String(), "could NOT be written to "+notDir) {
		t.Errorf("the fibre cut's protection-switch captures were lost and the report does not say so: %q", out.String())
	}

	out.Reset()
	reportCaptureWriteErrors(&out, []flight.LinkJSON{{Link: "a", Captures: 3}}, "dir")
	if out.Len() != 0 {
		t.Errorf("report line with no write errors: %q", out.String())
	}
}
