package telemetry

import (
	"math"
	"sort"
	"strconv"
)

// Fleet-side series plumbing: once snapshots from several processes are
// parsed with ParseText, these helpers relabel, merge and re-render
// them so one registry's exposition format also serves as the fleet
// interchange format. Merging itself is concatenation — InjectLabel
// first, so same-named series from different instances stay distinct.

// InjectLabel returns series with key=value stamped on every sample,
// regenerating Full so the result re-parses. An existing label under
// the same key is overwritten (re-scraping an already-merged snapshot
// stays idempotent). The input slice is not modified.
func InjectLabel(series []Series, key, value string) []Series {
	out := make([]Series, len(series))
	for i, s := range series {
		labels := make(map[string]string, len(s.Labels)+1)
		for k, v := range s.Labels {
			labels[k] = v
		}
		labels[key] = value
		out[i] = Series{
			Full:   seriesName(s.Name, sortedLabels(labels)),
			Name:   s.Name,
			Labels: labels,
			Value:  s.Value,
		}
	}
	return out
}

// sortedLabels renders a label map as a deterministically ordered list.
func sortedLabels(m map[string]string) []Label {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make([]Label, len(keys))
	for i, k := range keys {
		ls[i] = L(k, m[k])
	}
	return ls
}

// SeriesQuantile estimates quantile q of the histogram family name
// from its parsed <name>_bucket series, considering only samples whose
// labels include every match pair. Buckets that collide on le after
// filtering (the same line scraped from two instances) are summed, so
// the estimate is the fleet-wide distribution. Returns ok=false when
// no observations match.
func SeriesQuantile(series []Series, name string, q float64, match ...Label) (int64, bool) {
	cum := map[float64]uint64{}
	bucket := name + "_bucket"
samples:
	for _, s := range series {
		if s.Name != bucket {
			continue
		}
		for _, m := range match {
			if s.Labels[m.Key] != m.Value {
				continue samples
			}
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += uint64(s.Value)
	}
	if len(cum) == 0 {
		return 0, false
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	// De-cumulate into the bounds/counts shape quantileFromBuckets
	// expects: finite bounds plus one overflow slot (+Inf).
	var bounds []int64
	var counts []uint64
	prev := uint64(0)
	for _, le := range les {
		c := cum[le]
		if c < prev {
			return 0, false // not cumulative: corrupt input
		}
		if math.IsInf(le, +1) {
			counts = append(counts, c-prev)
		} else {
			bounds = append(bounds, int64(le))
			counts = append(counts, c-prev)
		}
		prev = c
	}
	if len(bounds) == len(counts) {
		counts = append(counts, 0) // no +Inf sample line: empty overflow
	}
	if len(bounds) == 0 || prev == 0 {
		return 0, false // no bounds, or no observation in any bucket
	}
	return quantileFromBuckets(bounds, counts, q), true
}
