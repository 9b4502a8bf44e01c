package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	gigapos "repro"
	"repro/internal/flight"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// committed is the path of a scenario under scenarios/.
func committed(name string) string { return filepath.Join("..", "..", "scenarios", name+".json") }

// inline writes a scenario document to a file for one test.
func inline(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scrapeGet GETs base+path and returns the status and body.
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

// count is how many series of s are the family name, over any labels.
func count(s map[string]float64, name string) (n int) {
	for full := range s {
		if strings.HasPrefix(full, name+"{") {
			n++
		}
	}
	return n
}

// scrapeTrace GETs /trace and decodes the events.
func scrapeTrace(t *testing.T, base string) []telemetry.Event {
	t.Helper()
	code, body := scrapeGet(t, base, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	trace, err := telemetry.ReadEvents(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decode /trace: %v", err)
	}
	return trace
}

// withProcs runs the engine tests on two shards: an engine has
// GOMAXPROCS of them.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestLoopbackTelemetryScrape is the acceptance path: a framed burst
// over the STM-1 section with scripted line faults, then an HTTP scrape
// of /metrics must show nonzero per-stage occupancy, stall, and
// FCS-error series, the profiling and trace endpoints must answer, and
// /metrics is the only state document: /debug/vars is not served.
func TestLoopbackTelemetryScrape(t *testing.T) {
	var series map[string]float64
	cfg := simConfig{
		scenario: inline(t, `{"name": "section-errors",
			"p5": {"width": 8, "frames": 60, "density": 0.02, "line": "stm1"},
			"traffic": {"mix": "imix", "seed": 7}, "duration": 40,
			"events": [{"at": 2, "action": "dup"}, {"at": 4, "action": "noise", "ticks": 4, "rate": 0.0005, "seed": 7}],
			"assert": {}}`),
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			if code, _ := scrapeGet(t, base, "/debug/vars"); code != http.StatusNotFound {
				t.Errorf("/debug/vars status %d, want 404", code)
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

// TestSONETTelemetryScrape runs the P5 over its STM-1 section with a
// byte slip and a line cut, and checks the section/defect series and
// trace events appear alongside the System's pipeline series.
func TestSONETTelemetryScrape(t *testing.T) {
	var series map[string]float64
	var trace []telemetry.Event
	cfg := simConfig{
		scenario: inline(t, `{"name": "section-faults",
			"p5": {"width": 8, "frames": 20, "density": 0.02, "line": "stm1"},
			"traffic": {"mix": "imix", "seed": 3}, "duration": 80,
			"events": [{"at": 2, "action": "slip"}, {"at": 10, "action": "cut", "ticks": 10}],
			"assert": {}}`),
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			trace = scrapeTrace(t, base)
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
		`p5_cycles_total`,
		`p5_tx_frames_total`,
		`p5_unit_busy_cycles_total{unit="escape_gen"}`,
		`p5_rx_frames_good_total`,
		`p5_unit_busy_cycles_total{unit="delineator"}`,
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
// committed working-line cut must expose the APS switch counter and the
// switch-duration histogram through /metrics, each section's deframer
// in the sonet_* family labelled with its end and section, emit aps
// switch trace events and defect events naming the cut section, and
// report a hitless run (no LCP renegotiation).
func TestProtectTelemetryScrape(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the pair records; its captures land here
	var series map[string]float64
	var trace []telemetry.Event
	cfg := simConfig{
		scenario:      committed("protected-working-cut"),
		telemetryAddr: "127.0.0.1:0",
		scrape: func(base string) {
			series = seriesMap(t, base)
			trace = scrapeTrace(t, base)
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
		`sonet_b2_errors_total{link="prot_z",section="working"}`, // the cut corrupts line parity before LOS bites
		`sonet_frames_ok_total{link="prot_z",section="protect"}`,
		`sonet_frames_ok_total{link="prot_a",section="protect"}`,
		`link_standby_discarded_octets_total{link="prot_z"}`,
	} {
		if v, ok := series[name]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", name, v, ok)
		}
	}
	// Only the a→b working line was cut: a's own receive side stayed clean.
	if got, ok := series[`sonet_b2_errors_total{link="prot_a",section="working"}`]; !ok || got != 0 {
		t.Errorf(`sonet_b2_errors_total{link="prot_a",section="working"} = %v (present=%v), want 0 (b's errors leaked into a's series)`, got, ok)
	}
	if got := series[`aps_active{link="prot_z"}`]; got != 0 {
		t.Errorf("aps_active = %v, want 0 (reverted to working)", got)
	}
	switches := 0
	raised := map[string]bool{}
	for _, e := range trace {
		if e.Scope == "aps:prot_z" && e.Name == "switch" {
			switches++
		}
		if e.Name == "defect-raise" {
			raised[e.Scope] = true
		}
	}
	if switches != 2 {
		t.Errorf("aps:prot_z switch trace events = %d, want 2", switches)
	}
	// The cut's defects name the end and the section they were seen on.
	if !raised["sonet:prot_z/working"] || len(raised) != 1 {
		t.Errorf("defect-raise scopes %v, want only sonet:prot_z/working (the one cut section)", raised)
	}
	// The ledger's circuit line: no LCP renegotiation at either end.
	if !strings.Contains(out.String(), "reneg=0/0") {
		t.Errorf("report does not show a hitless run:\n%s", out.String())
	}
}

// TestProtectFlightScrape re-runs the failover with -flight: the APS
// switch must dump exactly one capture per selector movement (decodable
// from disk), the SLO burn gauges and latency histograms must appear in
// /metrics with prot_z graded and prot_a's departures tracked.
func TestProtectFlightScrape(t *testing.T) {
	dir := t.TempDir()
	var series map[string]float64
	cfg := simConfig{
		scenario:      committed("protected-working-cut"),
		telemetryAddr: "127.0.0.1:0",
		flightDir:     dir,
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
	if n := series[`flight_frames_tracked_total{link="prot_a"}`]; n == 0 {
		t.Error("prot_a tracked no departures")
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
	// The OAM block watches the z end's recorder (IntFlightDump is
	// unmasked): each capture latches flight-dump beside the switch.
	if !strings.Contains(out.String(), "OAM interrupts   : stat=0x600 irq=true causes=[aps-switch flight-dump]") {
		t.Errorf("OAM interrupt line does not name flight-dump:\n%s", out.String())
	}
}

// engineDoc is a 4-pair engine over pipes, 200 steps of 256-octet
// datagrams.
const engineDoc = `{"name": "engine-4", "engine": {"links": 4, "line": "pipe"},
	"traffic": {"mix": "fixed:256"}, "duration": 200, "assert": {}}`

// TestEngineModeScrape runs the line card and checks the report plus
// the exported aggregate series.
func TestEngineModeScrape(t *testing.T) {
	withProcs(t, 2)
	var series map[string]float64
	cfg := simConfig{
		scenario:      inline(t, engineDoc),
		telemetryAddr: "127.0.0.1:0",
		flightDir:     t.TempDir(),
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
	if slos, links := count(series, "slo_worst_burn_rate"), count(series, "flight_frames_lost_total"); slos != 8 || links != 8 {
		t.Errorf("/metrics: %d slos %d links, want 8/8", slos, links)
	}
	for full, v := range series {
		if strings.HasPrefix(full, "flight_frames_lost_total{") && v != 0 {
			t.Errorf("clean engine run lost %v frames: %s", v, full)
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

// TestEngineProfMode runs the line card with the performance
// observatory armed: the profile files land in the directory, the
// report carries the stage breakdown, and the prof_* and runtime_*
// series join the exposition.
func TestEngineProfMode(t *testing.T) {
	withProcs(t, 2)
	profDir := t.TempDir()
	var series map[string]float64
	cfg := simConfig{
		scenario:      inline(t, engineDoc),
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

// TestRunRejectsBadFlags pins the usage-error path: a document that
// does not validate, and a where-flag on a topology that cannot use it,
// are refused (exit 2) naming the problem — not ignored.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "captures")
	p5 := inline(t, `{"name": "p5", "p5": {"width": 32, "frames": 1, "line": "loopback"}, "assert": {}}`)
	for _, c := range []struct {
		name string
		cfg  simConfig
		want string
	}{
		{"bad width", simConfig{scenario: inline(t, `{"name": "w", "p5": {"width": 16, "frames": 1, "line": "loopback"}, "assert": {}}`)}, "p5.width must be 8 or 32"},
		{"bad size", simConfig{scenario: inline(t, `{"name": "s", "p5": {"width": 8, "frames": 1, "line": "loopback"}, "traffic": {"mix": "bogus"}, "assert": {}}`)}, "unknown traffic mix"},
		{"bad engine size", simConfig{scenario: inline(t, `{"name": "e", "engine": {"links": 2, "line": "pipe"}, "traffic": {"mix": "fixed:bogus"}, "duration": 1, "assert": {}}`)}, "bad traffic mix"},
		// -flight used to leave an empty directory behind the P5 runs
		// without a word.
		{"-flight on p5", simConfig{scenario: p5, flightDir: dir}, "the p5 loopback topology has none"},
		{"-listen on p5", simConfig{scenario: p5, listen: "127.0.0.1:0"}, "the p5 loopback topology has no socket"},
		{"-dial on a ring", simConfig{scenario: committed("fiber-cut"), dial: "127.0.0.1:9"}, "the ring topology has no socket"},
		{"-listen on protected", simConfig{scenario: committed("protected-working-cut"), listen: "127.0.0.1:0"}, "the protected topology has no socket"},
		{"-listen on a pipe engine", simConfig{scenario: committed("engine-pipe"), listen: "127.0.0.1:0"}, "the pipe engine topology has no socket"},
		{"socket engine without -listen/-dial", simConfig{scenario: committed("net/udp-stall")}, "exactly one of a listen or a dial"},
	} {
		var out bytes.Buffer
		err := run(c.cfg, &out)
		if _, ok := err.(usageError); !ok || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a usageError naming %q", c.name, err, c.want)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a refused -flight still created %s", dir)
	}
}

// TestRunRejectsModeCombinations: two topologies in one document are a
// usage error, not a silent pick of the first; the line card behind
// STM-16 lines is one topology and delivers everything it offers.
func TestRunRejectsModeCombinations(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want string // "" = accepted
	}{
		{`{"name": "x", "protected": {}, "p5": {"width": 32, "frames": 1, "line": "stm1"}, "duration": 10, "assert": {}}`, "exactly one topology"},
		{`{"name": "x", "engine": {"links": 4, "line": "pipe"}, "protected": {}, "traffic": {"mix": "fixed:64"}, "duration": 10, "assert": {}}`, "exactly one topology"},
		{`{"name": "x", "ring": {"nodes": 4, "circuits": [{"name": "c0", "a": 0, "b": 2}]}, "engine": {"links": 2, "line": "pipe"}, "duration": 10, "assert": {}}`, "exactly one topology"},
		{`{"name": "x", "duration": 10, "assert": {}}`, "exactly one topology"},
		{`{"name": "x", "engine": {"links": 2, "line": "stm16"}, "traffic": {"mix": "fixed:64"}, "duration": 20, "assert": {}}`, ""},
	} {
		var out bytes.Buffer
		err := run(simConfig{scenario: inline(t, c.doc)}, &out)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.doc, err)
			} else if !strings.Contains(out.String(), "640/640 datagrams delivered, lcp-renegotiations=0") {
				t.Errorf("two pairs over STM-16 lines:\n%s", out.String())
			}
			continue
		}
		if _, ok := err.(usageError); !ok || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a usageError naming %q", c.doc, err, c.want)
		}
	}
}

// TestScenarioMode runs the committed fiber-cut drill (PASS, report
// names the drill) and a deliberately impossible drill (FAIL, non-nil
// error, report points at the .p5fr captures). Without -flight a ring
// records into a fresh directory under $TMPDIR: a drill that captured
// nothing leaves none behind, a failing one keeps its captures where its
// error says.
func TestScenarioMode(t *testing.T) {
	var out bytes.Buffer
	cfg := simConfig{scenario: committed("fiber-cut"), flightDir: t.TempDir()}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("fiber-cut drill failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{`Chaos drill "fiber-cut"`, "verdict          : PASS"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	out.Reset()
	if err := run(simConfig{scenario: committed("blsr-span-cut")}, &out); err != nil {
		t.Fatalf("blsr-span-cut drill failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "captures=0 dir="+tmp) {
		t.Errorf("blsr-span-cut: want a report of no captures under %s:\n%s", tmp, out.String())
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("a drill that captured nothing left %d entries in $TMPDIR: %v", len(left), left)
	}

	// An impossible drill: assert zero switches across a fibre cut.
	bad := inline(t, `{
	  "name": "impossible", "ring": {"nodes": 4, "circuits": [{"name": "c0", "a": 0, "b": 2, "slot": 0}]},
	  "duration": 600,
	  "events": [{"at": 100, "action": "cut", "between": [0, 1]}],
	  "assert": {"circuits": [{"circuit": "c0", "switches": 0}]}
	}`)
	out.Reset()
	err := run(simConfig{scenario: bad}, &out)
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
	left, _ := filepath.Glob(filepath.Join(tmp, "p5sim-scenario-*", "*.p5fr"))
	if len(left) == 0 || !strings.Contains(err.Error(), filepath.Dir(left[0])) {
		t.Errorf("failing drill: captures %v, error %q; want the captures kept in the directory the error names", left, err)
	}

	// A missing file is a usage error (exit 2), not a drill failure.
	if err := run(simConfig{scenario: "no-such.json"}, &out); err == nil {
		t.Fatal("missing scenario file accepted")
	} else if _, ok := err.(usageError); !ok {
		t.Fatalf("want usageError for missing file, got %T", err)
	}
}

// TestScenarioTelemetryScrape: a ring drill under -telemetry serves what
// its ends armed — the ring selector series of both ends of every
// circuit and the SLOs grading both of its ends in /metrics, the one
// state document the endpoint list names.
func TestScenarioTelemetryScrape(t *testing.T) {
	var series map[string]float64
	cfg := simConfig{
		scenario:      committed("fiber-cut"),
		flightDir:     t.TempDir(),
		telemetryAddr: "127.0.0.1:0",
		scrape:        func(base string) { series = seriesMap(t, base) },
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if series == nil {
		t.Fatal("no endpoint came up for the drill")
	}
	if got, ok := series[`link_ring_switches_total{link="c0_z"}`]; !ok || got != 1 {
		t.Errorf(`link_ring_switches_total{link="c0_z"} = %v (present=%v), want 1 (the cut's one switch)`, got, ok)
	}
	if _, ok := series[`link_ring_switches_total{link="c0_a"}`]; !ok {
		t.Error(`link_ring_switches_total{link="c0_a"} missing`)
	}
	for _, end := range []string{"c0_a", "c0_z"} {
		if _, ok := series[`slo_worst_burn_rate{slo="`+end+`"}`]; !ok {
			t.Errorf(`slo_worst_burn_rate{slo=%q} missing: the drill graded no such end`, end)
		}
	}
	if !strings.Contains(out.String(), "(/debug/pprof/ /trace)") {
		t.Errorf("report does not list exactly /debug/pprof/ and /trace beside /metrics:\n%s", out.String())
	}
}

// TestReportsSayWhenCapturesWereNotWritten: a drill whose capture
// directory cannot be written still runs and grades, but every report
// that names capture files gains a line saying how many are missing —
// and stays silent when every write landed.
func TestReportsSayWhenCapturesWereNotWritten(t *testing.T) {
	// A regular file where the directory should be: unwritable for any
	// user, root included.
	notDir := filepath.Join(t.TempDir(), "captures")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(committed("fiber-cut"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := s.Run(scenario.RunConfig{Observation: gigapos.Observation{Flight: &flight.Config{Dir: notDir}}, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Errorf("drill failed for want of a capture directory: %+v", res.Failures)
	}
	if len(res.CapturePaths) != 0 {
		t.Fatalf("drill names capture files under an unwritable directory: %v", res.CapturePaths)
	}
	if !strings.Contains(out.String(), "could NOT be written to "+notDir) {
		t.Errorf("the fibre cut's protection-switch captures were lost and the report does not say so: %q", out.String())
	}

	out.Reset()
	if _, err := s.Run(scenario.RunConfig{Observation: gigapos.Observation{Flight: &flight.Config{Dir: t.TempDir()}}, Out: &out}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "capture errors") {
		t.Errorf("report line with no write errors:\n%s", out.String())
	}
}
