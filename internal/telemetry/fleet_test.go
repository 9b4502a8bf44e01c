package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// writeSeriesText renders parsed series back to exposition sample lines
// (no HELP/TYPE headers), the shape a merged fleet snapshot has when it
// is fed to ParseText again.
func writeSeriesText(w io.Writer, series []Series) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Full, formatFloat(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// scrapeOf renders a registry the way an HTTP scrape would see it and
// parses it back — the first half of the fleet merge path.
func scrapeOf(t *testing.T, r *Registry) []Series {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	ss, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestFleetMergeDuplicateSeries: two instances exporting the very same
// series names (the normal case — every process runs the same code)
// must stay distinct after instance-label injection, and a merged
// snapshot must round-trip through the parser.
func TestFleetMergeDuplicateSeries(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("frames_total", "frames", L("line", "port0_a")).Add(7)
	rb.Counter("frames_total", "frames", L("line", "port0_a")).Add(11)

	merged := append(
		InjectLabel(scrapeOf(t, ra), "instance", "node-a:9100"),
		InjectLabel(scrapeOf(t, rb), "instance", "node-b:9100")...,
	)
	if len(merged) != 2 {
		t.Fatalf("merged %d series, want 2", len(merged))
	}
	if merged[0].Full == merged[1].Full {
		t.Fatalf("instance injection left duplicate series identity %q", merged[0].Full)
	}

	var buf bytes.Buffer
	if err := writeSeriesText(&buf, merged); err != nil {
		t.Fatal(err)
	}
	again, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("merged snapshot does not re-parse: %v", err)
	}
	byInstance := map[string]float64{}
	for _, s := range again {
		if s.Name != "frames_total" {
			t.Fatalf("unexpected series %q", s.Full)
		}
		if s.Label("line") != "port0_a" {
			t.Fatalf("original label lost: %q", s.Full)
		}
		byInstance[s.Label("instance")] = s.Value
	}
	if byInstance["node-a:9100"] != 7 || byInstance["node-b:9100"] != 11 {
		t.Fatalf("values scrambled in merge: %v", byInstance)
	}
}

// TestFleetMergeConflictingHelp: instances on different code revisions
// can disagree on HELP text for the same family. The parse side must
// shrug (comments are not data) and the merge must keep both samples.
func TestFleetMergeConflictingHelp(t *testing.T) {
	textA := "# HELP up liveness\n# TYPE up gauge\nup 1\n"
	textB := "# HELP up whether the scrape target is reachable\n# TYPE up gauge\nup 0\n"
	sa, err := ParseText(strings.NewReader(textA))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseText(strings.NewReader(textB))
	if err != nil {
		t.Fatal(err)
	}
	merged := append(InjectLabel(sa, "instance", "a"), InjectLabel(sb, "instance", "b")...)
	if len(merged) != 2 || merged[0].Value != 1 || merged[1].Value != 0 {
		t.Fatalf("conflicting-HELP merge lost samples: %+v", merged)
	}
}

// TestInjectLabelEscaping: injected values with quotes, backslashes
// and newlines must survive a render/re-parse cycle, and injection
// must overwrite a stale label of the same name rather than duplicate
// it.
func TestInjectLabelEscaping(t *testing.T) {
	in := []Series{{Full: "x", Name: "x", Value: 1}}
	hostile := `he said "hi"\` + "\n" + `done`
	out := InjectLabel(in, "instance", hostile)
	var buf bytes.Buffer
	if err := writeSeriesText(&buf, out); err != nil {
		t.Fatal(err)
	}
	again, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("escaped label does not re-parse: %v", err)
	}
	if got := again[0].Label("instance"); got != hostile {
		t.Fatalf("label mangled: %q, want %q", got, hostile)
	}
	if in[0].Labels != nil || in[0].Full != "x" {
		t.Fatalf("InjectLabel modified its input: %+v", in[0])
	}
	twice := InjectLabel(out, "instance", "rescraped")
	if len(twice[0].Labels) != 1 || twice[0].Label("instance") != "rescraped" {
		t.Fatalf("re-injection not idempotent: %+v", twice[0])
	}
}

// TestSeriesQuantile: quantiles recovered from parsed _bucket series
// must agree with the source histogram, and buckets from two instances
// must sum into one fleet-wide distribution.
func TestSeriesQuantile(t *testing.T) {
	ra := NewRegistry()
	ha := NewHistogram([]int64{10, 100, 1000})
	ra.AttachHistogram("lat_us", "latency", ha, L("line", "port0_a"))
	for i := 0; i < 90; i++ {
		ha.Observe(5)
	}
	for i := 0; i < 10; i++ {
		ha.Observe(500)
	}
	ss := InjectLabel(scrapeOf(t, ra), "instance", "a")

	if p50, ok := SeriesQuantile(ss, "lat_us", 0.5, L("line", "port0_a")); !ok || p50 != 10 {
		t.Fatalf("p50 = %d ok=%v, want 10", p50, ok)
	}
	if p99, ok := SeriesQuantile(ss, "lat_us", 0.99, L("line", "port0_a")); !ok || p99 != 1000 {
		t.Fatalf("p99 = %d ok=%v, want 1000", p99, ok)
	}
	if _, ok := SeriesQuantile(ss, "lat_us", 0.5, L("line", "no-such-line")); ok {
		t.Fatal("quantile matched a non-existent line")
	}
	if _, ok := SeriesQuantile(nil, "lat_us", 0.5); ok {
		t.Fatal("quantile from no series reported ok")
	}
	// A histogram that is exported but has observed nothing (a link
	// before its first delivery) matches no observation either: every
	// bucket line is present and zero.
	re := NewRegistry()
	re.AttachHistogram("lat_us", "latency", NewHistogram([]int64{10, 100, 1000}), L("line", "idle"))
	if q, ok := SeriesQuantile(scrapeOf(t, re), "lat_us", 0.99, L("line", "idle")); ok {
		t.Fatalf("quantile of an empty histogram = %d with ok=true, want ok=false", q)
	}

	// Second instance skewed high: the fleet-wide p50 (no instance
	// match) must move up to the merged distribution's median.
	rb := NewRegistry()
	hb := NewHistogram([]int64{10, 100, 1000})
	rb.AttachHistogram("lat_us", "latency", hb, L("line", "port0_a"))
	for i := 0; i < 200; i++ {
		hb.Observe(50000) // beyond the top bound: lands in +Inf
	}
	fleet := append(ss, InjectLabel(scrapeOf(t, rb), "instance", "b")...)
	p50, ok := SeriesQuantile(fleet, "lat_us", 0.5, L("line", "port0_a"))
	if !ok || p50 != 1000 {
		t.Fatalf("fleet p50 = %d ok=%v, want 1000 (+Inf clamped to top bound)", p50, ok)
	}
	pa, ok := SeriesQuantile(fleet, "lat_us", 0.5, L("instance", "a"))
	if !ok || pa != 10 {
		t.Fatalf("instance-a p50 = %d ok=%v, want 10", pa, ok)
	}
}
