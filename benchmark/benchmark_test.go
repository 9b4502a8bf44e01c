package main

import (
	"io"
	"math"
	"regexp"
	"slices"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same inputs.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := percentile([]float64{4, 1, 3, 2, 5}, 50); got != 3 {
		t.Errorf("percentile 50 = %v, want 3", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		// Batch 0: the children overlap each other and one pokes out of
		// the root; covered time is a union, clipped to the parent.
		{0, spanLinkSend, spanBatch, 10, 30},
		{0, spanLinkInput, spanBatch, 20, 50},
		{0, spanVerify, spanBatch, 90, 120},
		{0, spanBatch, noParent, 0, 100},
		// Batch 1: children tile the root exactly.
		{1, spanLinkSend, spanBatch, 100, 140},
		{1, spanLinkInput, spanBatch, 140, 200},
		{1, spanBatch, noParent, 100, 200},
	}
	self := selfTimes(spans)
	want := map[spanID]int64{
		spanBatch:     (100 - 40 - 10) + 0,
		spanLinkSend:  20 + 40,
		spanLinkInput: 30 + 60,
		spanVerify:    30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%s] = %d, want %d", spanNames[id], self[id], w)
		}
	}
}

func TestTracerTilesAndMerges(t *testing.T) {
	var off *tracer
	off.begin()
	off.mark(spanWait)
	off.end() // a nil tracer records nothing and must not panic

	tr := newTracer()
	tr.begin()
	tr.mark(spanWait)
	tr.mark(spanWait) // an empty poll loop: one span, not one per iteration
	tr.mark(spanPoll)
	tr.mark(spanWait)
	tr.end()
	var names []spanID
	for _, s := range tr.spans {
		names = append(names, s.name)
	}
	if want := []spanID{spanWait, spanPoll, spanWait, spanBatch}; !slices.Equal(names, want) {
		t.Fatalf("span names = %v, want %v", names, want)
	}
	root := tr.spans[3]
	if tr.spans[0].start != root.start || tr.spans[2].end > root.end {
		t.Errorf("children do not tile the root: %+v", tr.spans)
	}
	for i := 1; i < 3; i++ {
		if tr.spans[i].start != tr.spans[i-1].end {
			t.Errorf("span %d starts at %d, previous ended at %d", i, tr.spans[i].start, tr.spans[i-1].end)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 105}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		exact  bool
		want   string
	}{
		{"within bound", steady, []float64{95}, true, 0.10, false, verdictOK},
		{"higher-is-better dropped", steady, []float64{85}, true, 0.10, false, verdictWorse},
		{"higher-is-better rose", steady, []float64{150}, true, 0.10, false, verdictOK},
		{"lower-is-better rose", steady, []float64{115}, false, 0.10, false, verdictWorse},
		{"lower-is-better dropped", steady, []float64{50}, false, 0.10, false, verdictOK},
		{"spread wider than bound", noisy, []float64{100, 101}, true, 0.10, false, verdictUnresolved},
		{"noisy but every run better", noisy, []float64{140, 150}, true, 0.10, false, verdictOK},
		{"noisy and every run worse", noisy, []float64{60, 70}, true, 0.10, false, verdictUnresolved},
		{"exact and equal", []float64{31.06, 31.06}, []float64{31.06}, true, 0, true, verdictOK},
		{"exact and different", []float64{31.06}, []float64{31.07}, true, 0, true, verdictDiffers},
		{"zero baseline, still zero", []float64{0, 0}, []float64{0}, false, 0.10, false, verdictOK},
		{"zero baseline, any increase", []float64{0, 0}, []float64{0.01}, false, 0.10, false, verdictWorse},
	}
	for _, c := range cases {
		_, _, rel, got := judge(c.a, c.b, c.higher, c.bound, c.exact)
		if got != c.want {
			t.Errorf("%s: verdict %q (rel %v), want %q", c.name, got, rel, c.want)
		}
	}
	if _, _, rel, _ := judge([]float64{0}, []float64{2}, false, 0.1, false); !math.IsInf(rel, 1) {
		t.Errorf("relative difference from a zero baseline = %v, want +Inf", rel)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesTables holds BENCHMARK.json and the tables the
// program emits from to each other.
func TestSpecMatchesTables(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the program emits %s (%s)",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s: better = %q", kind, m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: %s: bound %v outside [0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	for _, w := range sp.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, the program has %v", w.Name, workloadNames)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, name := range workloadNames {
		if _, ok := setups[name]; !ok {
			t.Errorf("workload %s has no set-up", name)
		}
	}
}

// TestSmoke runs every workload through both passes, twice, with the
// smoke configuration: every metric is emitted and finite, nothing is
// lost, and the exact metrics repeat bit-for-bit for the same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, name := range workloadNames {
		for _, pass := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			var runs [2]*result
			for i := range runs {
				res, _, err := runWorkload(name, smokeConfig(1, pass.trace), io.Discard)
				if err != nil {
					t.Fatalf("%s (trace %v): %v", name, pass.trace, err)
				}
				runs[i] = res
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d",
						name, pass.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(pass.defs) {
					t.Errorf("%s (trace %v): %d metrics, want %d", name, pass.trace, len(res.Metrics), len(pass.defs))
				}
			}
			for _, d := range pass.defs {
				m, ok := runs[0].Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", name, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit:
					t.Errorf("%s: metric %s = %v %s", name, d.name, m.Value, m.Unit)
				case !pass.trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, m.Value)
				case d.exact && m.Value != runs[1].Metrics[d.name].Value:
					t.Errorf("%s: exact metric %s read %v then %v for one seed",
						name, d.name, m.Value, runs[1].Metrics[d.name].Value)
				}
			}
			if pass.trace && runs[0].Metrics["e2e.loss_ratio"].Value != 0 {
				t.Errorf("%s: loss ratio %v", name, runs[0].Metrics["e2e.loss_ratio"].Value)
			}
		}
	}
}
