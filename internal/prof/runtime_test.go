package prof

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// runtimeSeries are the exporter's exposition names. They are API:
// dashboards and the p5sim report depend on them, so renaming one is a
// breaking change this test makes deliberate.
var runtimeSeries = []struct {
	name string
	kind string
}{
	{"runtime_goroutines", "gauge"},
	{"runtime_gc_cycles_total", "counter"},
	{"runtime_gc_pauses_total", "counter"},
	{"runtime_gc_pause_p99_ns", "gauge"},
	{"runtime_sched_latency_p99_ns", "gauge"},
	{"runtime_heap_bytes", "gauge"},
	{"runtime_uptime_seconds", "gauge"},
}

func TestRuntimeExporterNamesStable(t *testing.T) {
	reg := telemetry.NewRegistry()
	ExportRuntime(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, s := range runtimeSeries {
		if !strings.Contains(text, "# TYPE "+s.name+" "+s.kind+"\n") {
			t.Errorf("exposition missing TYPE %s %s", s.name, s.kind)
		}
	}
	// And the scrape side parses what we wrote.
	parsed, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range parsed {
		got[s.Name] = true
	}
	for _, s := range runtimeSeries {
		if !got[s.name] {
			t.Errorf("parsed exposition missing %s", s.name)
		}
	}
}

// TestRuntimeExporterSnapshotRoundTrip checks the sampler hook: a
// registry Snapshot refreshes the mirrors without anyone calling
// Sample, counters stay monotonic, and a forced GC is visible in the
// next snapshot.
func TestRuntimeExporterSnapshotRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	ExportRuntime(reg)

	s1 := seriesValues(reg)
	g, ok := s1["runtime_goroutines"]
	if !ok || g < 1 {
		t.Fatalf("runtime_goroutines = %v (ok=%v), want >= 1", g, ok)
	}
	if h, ok := s1["runtime_heap_bytes"]; !ok || h <= 0 {
		t.Fatalf("runtime_heap_bytes = %v (ok=%v), want > 0", h, ok)
	}
	c1 := s1["runtime_gc_cycles_total"]

	runtime.GC()
	runtime.GC()
	s2 := seriesValues(reg)
	c2 := s2["runtime_gc_cycles_total"]
	if c2 < c1+2 {
		t.Errorf("gc cycles %v -> %v: snapshot did not resample after 2 forced GCs", c1, c2)
	}
	if p1 := s1["runtime_gc_pauses_total"]; p1 > 0 {
		if p2 := s2["runtime_gc_pauses_total"]; p2 < p1 {
			t.Errorf("gc pauses went backwards: %v -> %v", p1, p2)
		}
	}
}

// TestHistQuantileNs pins the quantile estimator against a
// hand-computed histogram, including the +Inf clamp.
func TestHistQuantileNs(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{90, 9, 1},
		Buckets: []float64{0, 1e-6, 1e-3, inf()},
	}
	// p50 of 100 obs lands in the first bucket → upper bound 1µs.
	if got := histQuantileNs(h, 0.50); got != 1_000 {
		t.Errorf("p50 = %d ns, want 1000", got)
	}
	// p99 (rank 99) lands in the second bucket → 1ms.
	if got := histQuantileNs(h, 0.99); got != 1_000_000 {
		t.Errorf("p99 = %d ns, want 1e6", got)
	}
	// p100 lands in the +Inf bucket → clamped to the highest finite
	// boundary, never a fabricated value.
	if got := histQuantileNs(h, 1.0); got != 1_000_000 {
		t.Errorf("p100 = %d ns, want clamp to 1e6", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := histQuantileNs(empty, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
}

func inf() float64 { return math.Inf(+1) }
