package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", "frames")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	// Get-or-create returns the same counter.
	if r.Counter("frames_total", "frames") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("occupancy", "fill", L("unit", "sorter"))
	g.Set(7)
	g.Set(g.value() - 2)
	if g.value() != 5 {
		t.Errorf("gauge = %d", g.value())
	}

	h := r.Histogram("gap_cycles", "gaps", []int64{1, 2, 4, 8})
	for _, v := range []int64{1, 1, 2, 3, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.total() != 116 {
		t.Errorf("hist count=%d sum=%d", h.Count(), h.total())
	}
	want := []uint64{2, 1, 1, 0, 2} // ≤1, ≤2, ≤4, ≤8, +Inf
	got := h.bucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// Regression: quantiles that land in the +Inf overflow bucket must be
// clamped to the highest finite bound — an unbounded bucket has no
// upper bound to report, and returning one fabricated a latency that
// was never configured, let alone observed.
func TestHistogramQuantileClampsOverflow(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8})

	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}

	// All mass in the overflow bucket: every quantile clamps to 8.
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 8 {
			t.Errorf("overflow-only q=%g = %d, want clamp to 8", q, got)
		}
	}

	// Mixed distribution: 90 fast observations, 10 in overflow. p50
	// resolves in a finite bucket; p99 lands in +Inf and clamps.
	h2 := NewHistogram([]int64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h2.Observe(2)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(99)
	}
	if got := h2.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := h2.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %d, want clamp to 8", got)
	}

	// Boundary math: rank = ceil(q*total); with 4 observations ≤1 and
	// 1 observation ≤2, p80 pins the 4th observation (bucket ≤1).
	h3 := NewHistogram([]int64{1, 2})
	for i := 0; i < 4; i++ {
		h3.Observe(1)
	}
	h3.Observe(2)
	if got := h3.Quantile(0.8); got != 1 {
		t.Errorf("p80 = %d, want 1", got)
	}
	if got := h3.Quantile(0.81); got != 2 {
		t.Errorf("p81 = %d, want 2", got)
	}

	// The helper over captured counts agrees with the live histogram.
	if got := quantileFromBuckets(h2.bounds, h2.bucketCounts(), 0.99); got != 8 {
		t.Errorf("quantileFromBuckets p99 = %d, want 8", got)
	}
	if got := quantileFromBuckets(nil, nil, 0.5); got != 0 {
		t.Errorf("quantileFromBuckets(nil) = %d, want 0", got)
	}
}

func TestHistogramSnapshotFlattening(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []int64{2, 4}, L("unit", "crc"))
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	s := values(r)
	checks := map[string]float64{
		`lat_bucket{unit="crc",le="2"}`:    1,
		`lat_bucket{unit="crc",le="4"}`:    2,
		`lat_bucket{unit="crc",le="+Inf"}`: 3,
		`lat_sum{unit="crc"}`:              13,
		`lat_count{unit="crc"}`:            3,
	}
	for series, want := range checks {
		if v, ok := s[series]; !ok || v != want {
			t.Errorf("%s = %v,%v want %v", series, v, ok, want)
		}
	}
}

func TestSanitizeNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("p5/wire transfers.total", "")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p5_wire_transfers_total") {
		t.Errorf("name not sanitized:\n%s", buf.String())
	}
}

// TestConcurrentWritersAndReaders is the -race gate of the satellite
// task: hammer every metric type and the tracer from many goroutines
// while a reader concurrently reads the series and scrapes.
func TestConcurrentWritersAndReaders(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{1, 10, 100})
	r.GaugeFunc("fn", "", func() float64 { return float64(c.Value()) })

	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Series()
			r.WritePrometheus(io.Discard)
			tr.Events()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(int64(j % 200))
				tr.Emit(int64(j), "w", "tick", "", int64(id), int64(j))
				// Concurrent registration must also be safe.
				r.Counter("late_total", "").Inc()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if c.Value() != writers*perWriter {
		t.Errorf("lost counter increments: %d", c.Value())
	}
	if h.Count() != writers*perWriter {
		t.Errorf("lost observations: %d", h.Count())
	}
	if evs := tr.Events(); evs[len(evs)-1].Seq != writers*perWriter {
		t.Errorf("lost events: %d", evs[len(evs)-1].Seq)
	}
	// Every writer that registered late_total got the one counter: a
	// registration that publishes the metric before its value lets two
	// of them install their own and lose the other's increments.
	if late := r.Counter("late_total", "").Value(); late != writers*perWriter {
		t.Errorf("lost increments on the concurrently registered counter: %d", late)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Emit(int64(i), "s", "n", "", 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events", len(evs))
	}
	if evs[0].Seq != 25 || evs[15].Seq != 40 {
		t.Errorf("retained window [%d..%d], want [25..40]", evs[0].Seq, evs[15].Seq)
	}
	// JSON round-trip.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 16 || back[0].Seq != 25 {
		t.Errorf("round-trip lost events: %d", len(back))
	}
}

// FuzzReadEvents: ReadEvents decodes bodies from outside the process
// (/trace in p5stat -events and -exemplars, any p5stat -replay file),
// so any input is an error or events, never a panic; and the events it
// accepts, emitted into a Tracer, come back from WriteJSON → ReadEvents
// field for field, numbered afresh by the Tracer's sequence.
func FuzzReadEvents(f *testing.F) {
	tr := NewTracer(16)
	tr.Emit(100, "link:port0_z", "slow-frame", "", 117, 40)
	tr.Emit(101, "sonet", "defect-raise", "LOS", 4, -4)
	var golden bytes.Buffer
	if err := tr.WriteJSON(&golden); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		golden.String(), "[]", "null", "", "{", "[{}]", `[{"seq": -1}]`,
		`[{"at": "x"}]`, `[{"scope": "\ud800", "v1": 9223372036854775807}]`, "[1, 2]",
		`{"events": []}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := ReadEvents(bytes.NewReader(in))
		if err != nil {
			return
		}
		tr := NewTracer(len(evs))
		for _, e := range evs {
			tr.Emit(e.At, e.Scope, e.Name, e.Detail, e.V1, e.V2)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEvents(&buf)
		if err != nil {
			t.Fatalf("ReadEvents of WriteJSON output: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(evs) {
			t.Fatalf("%d events back, want %d", len(back), len(evs))
		}
		for i, e := range evs {
			e.Seq = uint64(i + 1)
			if back[i] != e {
				t.Errorf("event %d: got %+v, want %+v", i, back[i], e)
			}
		}
	})
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a").Add(3)
	r.Gauge("b", "", L("wire", "tx.body"), L("k", `qu"ote`)).Set(-7)
	r.Histogram("c", "", []int64{5}).Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byFull := map[string]Series{}
	for _, s := range series {
		byFull[s.Full] = s
	}
	if s, ok := byFull["a_total"]; !ok || s.Value != 3 {
		t.Errorf("a_total = %+v", s)
	}
	g, ok := byFull[`b{wire="tx.body",k="qu\"ote"}`]
	if !ok || g.Value != -7 || g.Label("wire") != "tx.body" || g.Label("k") != `qu"ote` {
		t.Errorf("labelled gauge = %+v (present=%v)", g, ok)
	}
	if s, ok := byFull[`c_bucket{le="+Inf"}`]; !ok || s.Value != 1 {
		t.Errorf("bucket = %+v", s)
	}
}

// TestMirrorSyncsAndRefusesSecondClaim: a Mirror copies plain fields
// into registry series on Sync without allocating; the same family
// under different labels is two series and two claims; a second mirror
// on one series — two sync loops overwriting each other — panics at
// wiring time; a nil Mirror (an uninstrumented owner) syncs nothing.
func TestMirrorSyncsAndRefusesSecondClaim(t *testing.T) {
	reg := NewRegistry()
	var frames, other uint64
	var depth int64
	m := reg.Mirror()
	m.Counter("frames_total", "frames", func() uint64 { return frames }, L("link", "a"))
	m.Gauge("depth", "queue depth", func() int64 { return depth }, L("link", "a"))
	reg.Mirror().Counter("frames_total", "frames", func() uint64 { return other }, L("link", "b"))

	frames, depth = 7, -3
	m.Sync()
	snap := values(reg)
	if v := snap[`frames_total{link="a"}`]; v != 7 {
		t.Errorf(`frames_total{link="a"} = %v, want 7`, v)
	}
	if v := snap[`depth{link="a"}`]; v != -3 {
		t.Errorf(`depth{link="a"} = %v, want -3`, v)
	}
	if v, ok := snap[`frames_total{link="b"}`]; !ok || v != 0 {
		t.Errorf(`frames_total{link="b"} = %v before its own Sync, want 0`, v)
	}
	if allocs := testing.AllocsPerRun(100, m.Sync); allocs != 0 {
		t.Errorf("Sync allocates %.1f allocs/op, want 0", allocs)
	}
	var none *Mirror
	none.Sync()

	for name, declare := range map[string]func(){
		"counter": func() { reg.Mirror().Counter("frames_total", "frames", func() uint64 { return 0 }, L("link", "a")) },
		"gauge":   func() { m.Gauge("depth", "queue depth", func() int64 { return 0 }, L("link", "a")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second mirror on a %s series was not refused", name)
				}
			}()
			declare()
		}()
	}
}

// values reads r's series into a map of full series name to value.
func values(r *Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Series() {
		out[s.Full] = s.Value
	}
	return out
}
