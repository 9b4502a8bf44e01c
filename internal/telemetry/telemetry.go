// Package telemetry is the repo's observability spine: a zero-dependency,
// allocation-free metrics registry (atomic counters, gauges, fixed-bucket
// histograms) read back as one flattening of series, plus a bounded
// ring-buffer structured event tracer (trace.go) and Prometheus/
// pprof exposition (prometheus.go, http.go).
//
// The paper's P5 is only credible at OC-48 because every pipeline stage's
// occupancy, stall and resynchronisation behaviour is visible to the OAM
// block; this package is the software analogue. Probe points stay cheap:
// registration (allocation, map lookups, locking) happens once at wiring
// time, and the hot path is a single uncontended atomic add per event.
//
// Writers and readers may run on different goroutines — all metric state
// is atomic, so a live simulation can be scraped while it runs.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// kind classifies a metric for exposition (its # TYPE line).
type kind uint8

// The metric kinds.
const (
	// kindCounter is a monotonically increasing value.
	kindCounter kind = iota
	// kindGauge is an instantaneous value.
	kindGauge
	// kindHistogram is a fixed-bucket distribution; it flattens into
	// _bucket/_sum/_count series.
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one constant key="value" pair attached to a metric series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. The zero value
// is usable but unregistered; obtain registered counters from a
// Registry.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set stores an absolute value. It exists for mirror counters that are
// synchronised from a single-threaded simulation's plain counters (the
// rtl kernel syncs its per-wire counts this way); callers must keep the
// sequence of stored values non-decreasing for counter semantics to
// hold. A decrease is exposed as a counter reset, which Prometheus
// tolerates.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// value returns the current value.
func (g *Gauge) value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution over int64 observations
// (cycles, octets, virtual time units). Buckets are cumulative on
// exposition, Prometheus-style; observation is a short linear scan plus
// three atomic adds — no allocation.
type Histogram struct {
	bounds []int64 // inclusive upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram builds an unregistered histogram with the given
// inclusive upper bounds (must be ascending). Most callers want
// Registry.Histogram instead.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// total returns the sum of observed values.
func (h *Histogram) total() int64 { return h.sum.Load() }

// bucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow (+Inf) bucket.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the bucket counts. The estimate is the upper bound
// of the bucket the quantile falls in, which is the conservative
// (pessimistic) reading for latency-style data. Observations in the
// overflow bucket have no upper bound, so the estimate is clamped to
// the highest finite bound rather than inventing one; a histogram whose
// q-quantile lands in +Inf therefore reports bounds[len-1], never a
// fabricated larger value. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	var buf [32]uint64 // on the stack: an SLO evaluator asks once per link tick
	counts := buf[:0]
	for i := range h.counts {
		counts = append(counts, h.counts[i].Load())
	}
	return quantileFromBuckets(h.bounds, counts, q)
}

// quantileFromBuckets is Histogram.Quantile over externally captured
// bucket counts (len(counts) == len(bounds)+1, last entry the +Inf
// overflow bucket), so scraped or snapshotted histograms can be
// summarised with the same clamping rules.
func quantileFromBuckets(bounds []int64, counts []uint64, q float64) int64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the observation that pins the
	// quantile (ceil(q*total), at least 1).
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	cum := uint64(0)
	for i, c := range counts[:len(bounds)] {
		cum += c
		if cum >= rank {
			return bounds[i]
		}
	}
	// Quantile falls in the +Inf bucket: clamp to the highest finite
	// bound instead of returning an unbounded (meaningless) value.
	return bounds[len(bounds)-1]
}

// metric is one registered series.
type metric struct {
	name   string // sanitized family name
	help   string
	labels []Label
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // gauge-func
}

// series renders the full series identity: name plus label block.
func (m *metric) series() string { return seriesName(m.name, m.labels) }

// labelEscaper escapes label values as the exposition format (and ParseText) does.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func seriesName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(l.Key), labelEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:].
func sanitizeName(s string) string {
	ok := true
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i) {
			ok = false
			break
		}
	}
	if ok && s != "" {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if isNameChar(s[i], i) {
			b.WriteByte(s[i])
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func isNameChar(c byte, pos int) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return c >= '0' && c <= '9' && pos > 0
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use. Registration is get-or-create: asking twice for the
// same series returns the same metric, so independent subsystems can
// share counters by name.
type Registry struct {
	mu       sync.RWMutex
	metrics  []*metric
	index    map[string]*metric
	mirrored map[string]bool // series a Mirror feeds (mirror.go)
	samplers []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// register returns the metric for name+labels, creating it if needed.
// fill gives a new metric its value inside the critical section: a
// metric is never visible — to a second registrant or to a scrape —
// before it has one, and is not written again once it is.
func (r *Registry) register(name, help string, kind kind, labels []Label, fill func(*metric)) *metric {
	name = sanitizeName(name)
	key := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: append([]Label(nil), labels...), kind: kind}
	fill(m)
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter returns the registered counter for name+labels, creating it
// if needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the registered gauge for name+labels, creating it if
// needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels, func(m *metric) { m.gauge = &Gauge{} })
	if m.gauge == nil {
		panic(fmt.Sprintf("telemetry: %s re-registered as a gauge (was a gauge func)", m.series()))
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// exposition time. fn must be safe for concurrent calls. Asking again
// for the same series keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func(m *metric) { m.fn = fn })
}

// Histogram returns the registered histogram for name+labels, creating
// it with the given inclusive upper bounds if needed.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, func(m *metric) { m.hist = NewHistogram(bounds) }).hist
}

// AttachHistogram adopts an externally created histogram into the
// registry under name+labels, so subsystems that own their histograms
// (the transport latency meter) expose them without copying. Asking
// again for the same series keeps the first attached histogram.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, kindHistogram, labels, func(m *metric) { m.hist = h })
}

// AddSampler registers fn to run at the start of every Prometheus
// exposition (and so of every Series call), before metric values are read. It is the hook
// for pull-style sources (the prof package's runtime/metrics exporter)
// that refresh mirror counters/gauges only when someone is looking,
// keeping the instrumented process free of background polling. fn must
// be safe for concurrent calls and must not register metrics.
func (r *Registry) AddSampler(fn func()) {
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

func (r *Registry) runSamplers() {
	r.mu.RLock()
	samplers := append([]func(){}, r.samplers...)
	r.mu.RUnlock()
	for _, fn := range samplers {
		fn()
	}
}
