package prof

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Runtime exports a curated slice of runtime/metrics into a telemetry
// registry: goroutine count, GC cycle count, GC pause and scheduler
// latency p99s, and live heap size, beside the seconds since the export
// was armed (p5sim arms it at start-up, so this is its uptime). Values refresh through the
// registry's sampler hook, so every Snapshot or Prometheus scrape sees
// a fresh metrics.Read — the instrumented process never polls in the
// background, and an idle registry costs nothing.
//
// Exposition names (stable; runtime_test.go pins them):
//
//	runtime_goroutines           gauge
//	runtime_gc_cycles_total      counter
//	runtime_gc_pauses_total      counter
//	runtime_gc_pause_p99_ns      gauge
//	runtime_sched_latency_p99_ns gauge
//	runtime_heap_bytes           gauge
//	runtime_uptime_seconds       gauge
type Runtime struct {
	mu      sync.Mutex
	samples []metrics.Sample
	start   time.Time

	goroutines  *telemetry.Gauge
	gcCycles    *telemetry.Counter
	gcPauses    *telemetry.Counter
	gcPauseP99  *telemetry.Gauge
	schedLatP99 *telemetry.Gauge
	heapBytes   *telemetry.Gauge
	uptime      *telemetry.Gauge
}

// Indices into Runtime.samples; keep in sync with runtimeMetricNames.
const (
	rmGoroutines = iota
	rmGCCycles
	rmGCPauses
	rmSchedLat
	rmHeapBytes
)

var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/memory/classes/heap/objects:bytes",
}

// ExportRuntime registers the runtime series in reg and hooks the
// refresher into the registry's sampler chain. Safe to call once per
// registry; the series are unlabelled so a second call would collide
// by design.
func ExportRuntime(reg *telemetry.Registry) *Runtime {
	r := &Runtime{samples: make([]metrics.Sample, len(runtimeMetricNames)), start: time.Now()}
	for i, n := range runtimeMetricNames {
		r.samples[i].Name = n
	}
	r.goroutines = reg.Gauge("runtime_goroutines", "Live goroutines.")
	r.gcCycles = reg.Counter("runtime_gc_cycles_total", "Completed GC cycles.")
	r.gcPauses = reg.Counter("runtime_gc_pauses_total", "Stop-the-world pauses observed.")
	r.gcPauseP99 = reg.Gauge("runtime_gc_pause_p99_ns", "p99 stop-the-world GC pause, ns.")
	r.schedLatP99 = reg.Gauge("runtime_sched_latency_p99_ns",
		"p99 time goroutines spent runnable before running, ns.")
	r.heapBytes = reg.Gauge("runtime_heap_bytes", "Live heap object bytes.")
	r.uptime = reg.Gauge("runtime_uptime_seconds", "Whole seconds since the runtime export was armed (p5sim: process start).")
	reg.AddSampler(r.sample)
	r.sample()
	return r
}

// sample re-reads the runtime metrics and refreshes the mirrors. The
// registry calls it on every exposition; tests call it directly.
func (r *Runtime) sample() {
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.samples)
	if v := r.samples[rmGoroutines]; v.Value.Kind() == metrics.KindUint64 {
		r.goroutines.Set(int64(v.Value.Uint64()))
	}
	if v := r.samples[rmGCCycles]; v.Value.Kind() == metrics.KindUint64 {
		r.gcCycles.Set(v.Value.Uint64())
	}
	if v := r.samples[rmGCPauses]; v.Value.Kind() == metrics.KindFloat64Histogram {
		h := v.Value.Float64Histogram()
		r.gcPauses.Set(histCount(h))
		r.gcPauseP99.Set(histQuantileNs(h, 0.99))
	}
	if v := r.samples[rmSchedLat]; v.Value.Kind() == metrics.KindFloat64Histogram {
		r.schedLatP99.Set(histQuantileNs(v.Value.Float64Histogram(), 0.99))
	}
	if v := r.samples[rmHeapBytes]; v.Value.Kind() == metrics.KindUint64 {
		r.heapBytes.Set(int64(v.Value.Uint64()))
	}
	r.uptime.Set(int64(time.Since(r.start) / time.Second))
}

func histCount(h *metrics.Float64Histogram) uint64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// histQuantileNs estimates the q-quantile of a runtime seconds
// histogram in ns, using each bucket's upper boundary (conservative)
// and clamping the +Inf bucket to the highest finite boundary — the
// same rules telemetry.Histogram.Quantile applies.
func histQuantileNs(h *metrics.Float64Histogram, q float64) int64 {
	total := histCount(h)
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	maxFinite := 0.0
	for _, b := range h.Buckets {
		if !math.IsInf(b, 0) && b > maxFinite {
			maxFinite = b
		}
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Counts[i] covers [Buckets[i], Buckets[i+1]).
			upper := h.Buckets[i+1]
			if math.IsInf(upper, +1) {
				upper = maxFinite
			}
			return int64(upper * 1e9)
		}
	}
	return int64(maxFinite * 1e9)
}
