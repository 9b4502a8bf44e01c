package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // A's own run-to-run spread is wider than the bound
	verdictDiffers    = "differs"    // an exact metric is not equal
	verdictInfo       = "-"          // per-layer metric without a bound: shown, not judged
)

// row is one line of the comparison.
type row struct {
	metric, workload, unit string
	a, b                   float64 // medians over each side's runs
	rel                    float64 // (b-a)/|a|; ±Inf from a zero baseline
	verdict                string
}

// judge compares the runs of side B with those of side A for a metric
// with a bound. higher says which direction is better; exact demands
// equality (the sides ran the same seed).
func judge(a, b []float64, higher bool, bound float64, exact bool) (ma, mb, rel float64, verdict string) {
	_, ma, _ = quartiles(a)
	_, mb, _ = quartiles(b)
	switch {
	case ma == mb:
		rel = 0
	case ma == 0:
		rel = math.Inf(1)
		if mb < 0 {
			rel = math.Inf(-1)
		}
	default:
		rel = (mb - ma) / math.Abs(ma)
	}
	if exact {
		for _, v := range append(append([]float64(nil), a...), b...) {
			if v != a[0] {
				return ma, mb, rel, verdictDiffers
			}
		}
		return ma, mb, rel, verdictOK
	}
	worseBy := rel // how far B moved in the bad direction
	if higher {
		worseBy = -rel
	}
	if len(a) >= 2 && spread(a) > bound {
		// Noise wider than the bound: only a clean sweep resolves it.
		if allBetter(a, b, higher) {
			return ma, mb, rel, verdictOK
		}
		return ma, mb, rel, verdictUnresolved
	}
	if worseBy > bound {
		return ma, mb, rel, verdictWorse
	}
	return ma, mb, rel, verdictOK
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, higher bool) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// values collects one metric of one workload and pass across the sets.
func values(sets []resultSet, workload string, trace int, name string) (vals []float64, unit string) {
	for _, s := range sets {
		for _, r := range s.Runs {
			if r.Workload != workload || r.Trace != trace {
				continue
			}
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
				unit = m.Unit
			}
		}
	}
	return vals, unit
}

// compareSets builds one row per (metric, workload) both sides have.
// Exact metrics must be equal when both sides ran one and the same seed.
// A workload the suite runs but BENCHMARK.json leaves out (udp_window:
// too unsteady on this host to hold a bound) is shown, not judged.
func compareSets(sp *spec, a, b []resultSet) []row {
	inSpec := map[string]bool{}
	for _, w := range sp.Workloads {
		inSpec[w.Name] = true
	}
	sameSeed := true
	for _, s := range append(append([]resultSet(nil), a...), b...) {
		if s.Provenance.Seed != a[0].Provenance.Seed {
			sameSeed = false
		}
	}
	var rows []row
	add := func(trace int, metrics []specMetric, bounded bool) {
		for _, m := range metrics {
			for _, w := range workloadNames {
				va, unit := values(a, w, trace, m.Name)
				vb, _ := values(b, w, trace, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				exact := sameSeed && exactMetric(m.Name)
				r := row{metric: m.Name, workload: w, unit: unit}
				r.a, r.b, r.rel, r.verdict = judge(va, vb, m.Better == "higher", m.Bound, exact)
				if !(bounded && inSpec[w]) && !exact {
					r.verdict = verdictInfo
				}
				rows = append(rows, r)
			}
		}
	}
	add(0, sp.EndToEnd, true)
	add(1, sp.PerLayer, false)
	return rows
}

// printComparison prints the rows and returns how many are not ok.
func printComparison(w io.Writer, sp *spec, a, b []resultSet) int {
	bad := 0
	fmt.Fprintf(w, "%-32s %-14s %14s %14s %9s  %s\n", "metric", "workload", "A", "B", "diff", "verdict")
	for _, r := range compareSets(sp, a, b) {
		if r.verdict != verdictOK && r.verdict != verdictInfo {
			bad++
		}
		fmt.Fprintf(w, "%-32s %-14s %14.6g %14.6g %+8.2f%%  %s\n", r.metric, r.workload, r.a, r.b, 100*r.rel, r.verdict)
	}
	fmt.Fprintf(w, "%d rows not ok\n", bad)
	return bad
}
