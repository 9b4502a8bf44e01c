package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// HELP/TYPE headers once per family, registration order, label
// rendering, histogram flattening. Regenerate with `go test -update`.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("p5_tx_frames_total", "Frames pushed by the framer.").Add(42)
	r.Counter("p5_wire_transfers_total", "Words accepted across a wire.", L("wire", "framer.crc")).Add(9)
	r.Gauge("p5_fifo_highwater", "", L("unit", "escape_gen")).Set(12)
	r.GaugeFunc("p5_clock_mhz", "Modelled line clock.", func() float64 { return 155.52 })
	h := r.Histogram("p5_sink_gap_cycles", "Inter-word gap at the sink.", []int64{1, 2, 4})
	for _, v := range []int64{1, 3, 10} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// FuzzParseText: ParseText reads scrape bodies from arbitrary peers
// (p5stat -url A,B,...), so any input is an error or a result, never a
// panic; and the input as a label value and help text survives
// WritePrometheus → ParseText with every series and value intact.
func FuzzParseText(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(golden), "a{ 1", "a{} 1", "a} 1", `a{b="c} 1`, `a{b="\"} 1`,
		"a{b=\"x\ny\"} 2", "a 1 2", "# HELP a\n\ta\t3\n", "{", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if series, err := ParseText(bytes.NewReader(in)); err == nil {
			for _, s := range series {
				if !strings.HasPrefix(s.Full, s.Name) {
					t.Fatalf("series %q does not start with its name %q", s.Full, s.Name)
				}
			}
		}

		r := NewRegistry()
		r.Counter("fuzz_total", string(in), L("v", string(in))).Add(uint64(len(in)))
		r.Gauge("fuzz_level", "", L("v", string(in)), L("w", "x")).Set(-int64(len(in)))
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("ParseText of WritePrometheus output: %v", err)
		}
		want := []Series{
			{Name: "fuzz_total", Labels: map[string]string{"v": string(in)}, Value: float64(len(in))},
			{Name: "fuzz_level", Labels: map[string]string{"v": string(in), "w": "x"}, Value: -float64(len(in))},
		}
		if len(got) != len(want) {
			t.Fatalf("%d series back, want %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Value != w.Value || !reflect.DeepEqual(g.Labels, w.Labels) {
				t.Errorf("series %d: got %s=%v %q, want %s=%v %q", i, g.Name, g.Value, g.Labels, w.Name, w.Value, w.Labels)
			}
		}
	})
}
