package gigapos

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/aps"
	"repro/internal/flight"
	"repro/internal/p5"
	"repro/internal/prof"
	"repro/internal/sonet"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
)

var updateMetricsDoc = flag.Bool("update", false, "rewrite METRICS.md from the live registry")

// instanceLabels name an instance (which link, which shard); METRICS.md
// lists their keys only. Every other label is a closed vocabulary the
// code defines, and its values are part of the documented contract.
var instanceLabels = map[string]bool{
	"link": true, "engine": true, "shard": true, "line": true, "slo": true,
}

// TestMetricsDocMatchesRegistry keeps METRICS.md equal to what the code
// registers: it arms every observation surface once into one registry.
// Everything the root package exports goes through the one Observation —
// a pipe-transport Engine, a protected pair, a ring link and a port on a
// socket transport, so the document is also the proof that Observe
// reaches every family; the cycle-accurate p5.System, a bare
// sonet.Deframer (p5sim -sonet's section) and the runtime exporter are
// internal packages' own. It renders one row per metric family (name,
// type, labels, help) from the Prometheus exposition. A series added, removed, relabelled or
// re-described without the document fails here; `make metrics` (this
// test with -update) rewrites it.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(16)
	prof.ExportRuntime(reg)

	e := NewEngine(EngineConfig{Links: 1, Shards: 1,
		Transport: func(int) (a, z transport.LineTransport) { return transport.NewPipePair() }})
	defer e.Close()
	o := Observation{Registry: reg, Tracer: tr, Flight: &flight.Config{}, Profile: &prof.Config{}}
	e.Observe(o, "linecard")

	// Every optional Link subsystem on, so every link_* family registers.
	lcfg := LinkConfig{WantVJ: true, AllowVJ: true, Supervise: true}
	la, lb := aps.NewProtectedPair()
	new(Watch).ObservePair(o, "prot", NewTransportPort(NewLink(lcfg), la), NewTransportPort(NewLink(lcfg), lb))

	ring, err := topo.NewRing(topo.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	port, _, err := ring.AddCircuit(topo.Circuit{Name: "c0", A: 0, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	NewTransportPort(NewLink(LinkConfig{}), port).Observe(o, "ring")

	// A section System exports the loopback's series plus its section's
	// wire, and carries the sonet_* series on the same mirror.
	sys := p5.NewSectionSystem(4, sonet.STM1)
	sys.Section.Z.Deframer().Instrument(sys.Instrument(reg), tr)

	udp, err := transport.NewUDP(transport.UDPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	NewTransportPort(NewLink(LinkConfig{}), udp).Observe(o, "udp0")

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	got := renderMetricsDoc(t, expo.Bytes())
	if *updateMetricsDoc {
		if err := os.WriteFile("METRICS.md", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i, g := range gl {
		if i >= len(wl) || g != wl[i] {
			t.Fatalf("METRICS.md drifted from the live registry at line %d (run `make metrics`); the registry says:\n%s", i+1, g)
		}
	}
	t.Fatalf("METRICS.md has %d lines the live registry does not (run `make metrics`), from:\n%s",
		len(wl)-len(gl), wl[len(gl)])
}

// renderMetricsDoc turns a Prometheus text exposition into METRICS.md.
func renderMetricsDoc(t *testing.T, expo []byte) []byte {
	t.Helper()
	type family struct {
		kind, help string
		labels     map[string]map[string]bool // key -> values seen
	}
	families := map[string]*family{}
	get := func(name string) *family {
		if families[name] == nil {
			families[name] = &family{labels: map[string]map[string]bool{}}
		}
		return families[name]
	}
	sc := bufio.NewScanner(bytes.NewReader(expo))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.SplitN(line, " ", 4); len(f) == 4 && f[0] == "#" && f[1] == "HELP" {
			get(f[2]).help = f[3]
		} else if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			get(f[2]).kind = f[3]
		}
	}
	series, err := telemetry.ParseText(bytes.NewReader(expo))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		fam := families[s.Name]
		if fam == nil {
			// A histogram's sample lines carry a suffix its TYPE line does not.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(s.Name, suffix); base != s.Name && families[base] != nil {
					fam = families[base]
				}
			}
		}
		if fam == nil {
			t.Fatalf("series %s belongs to no TYPE-declared family", s.Full)
		}
		for k, v := range s.Labels {
			if k == "le" && fam.kind == "histogram" {
				continue
			}
			if fam.labels[k] == nil {
				fam.labels[k] = map[string]bool{}
			}
			fam.labels[k][v] = true
		}
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	var out bytes.Buffer
	out.WriteString("# METRICS — every exported series\n\n" +
		"Generated from the live registry by `TestMetricsDocMatchesRegistry` (`make metrics`\n" +
		"rewrites it; `go test ./...` fails when it drifts). One row per metric\n" +
		"family. Instance labels (`link`, `engine`, `shard`, `line`, `slo`) are listed\n" +
		"by key; every other label is a closed vocabulary and lists its values.\n" +
		"Each instrument exports one family: `p5_*` for the P5 (over the loopback line and the\n" +
		"STM-1 section alike), `sonet_*` for every section (a protected pair's by `link` and `section`),\n" +
		"histograms expose `_bucket{le}` / `_sum` / `_count`, and where the time went is\n" +
		"`prof_stage_ns_total{stage}` alone — DESIGN.md §13 defines each stage.\n\n" +
		"| series | type | labels | help |\n|---|---|---|---|\n")
	for _, name := range names {
		fam := families[name]
		keys := make([]string, 0, len(fam.labels))
		for k := range fam.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if instanceLabels[k] {
				continue
			}
			vals := make([]string, 0, len(fam.labels[k]))
			for v := range fam.labels[k] {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			keys[i] = k + "={" + strings.Join(vals, ",") + "}"
		}
		fmt.Fprintf(&out, "| `%s` | %s | %s | %s |\n", name, fam.kind,
			strings.Join(keys, ", "), strings.ReplaceAll(fam.help, "|", "\\|"))
	}
	return out.Bytes()
}
