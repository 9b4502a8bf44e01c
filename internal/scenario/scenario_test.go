package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	gigapos "repro"
	"repro/internal/flight"
	"repro/internal/netsim"
)

func TestParseValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:     "x",
			Ring:     &RingSpec{Nodes: 4, Circuits: []circuitSpec{{Name: "c0", A: 0, B: 2, Slot: 0}}},
			Duration: 100,
		}
	}
	engine := func(s *Scenario) {
		s.Ring, s.Engine, s.Traffic.Mix = nil, &engineSpec{Links: 2, Line: "pipe"}, "fixed:64"
	}
	p5stm1 := func(s *Scenario) { s.Ring, s.P5 = nil, &p5Spec{Width: 32, Frames: 4, Line: "stm1"} }
	p5loop := func(s *Scenario) { s.Ring, s.P5, s.Duration = nil, &p5Spec{Width: 8, Frames: 4, Line: "loopback"}, 0 }
	one := uint64(1)
	cases := []struct {
		name string
		mut  func(*Scenario)
		doc  string // when set, parse this document instead
		want string
	}{
		{"ok", func(*Scenario) {}, "", ""},
		{"no name", func(s *Scenario) { s.Name = "" }, "", "missing name"},
		{"bad mode", func(s *Scenario) { s.Ring.Mode = "ulsr" }, "", "unknown ring mode"},
		{"bad size", func(s *Scenario) { s.Ring.Nodes = 1 }, "", "outside 2..16"},
		{"no duration", func(s *Scenario) { s.Duration = 0 }, "", "duration"},
		{"no circuits", func(s *Scenario) { s.Ring.Circuits = nil }, "", "no circuits"},
		{"dup circuit", func(s *Scenario) {
			s.Ring.Circuits = append(s.Ring.Circuits, circuitSpec{Name: "c0", A: 1, B: 3, Slot: 1})
		}, "", "duplicate circuit"},
		{"bad mix", func(s *Scenario) { s.Traffic.Mix = "elephant" }, "", "unknown traffic mix"},
		{"bad fixed", func(s *Scenario) { s.Traffic.Mix = "fixed:4" }, "", "bad traffic mix"},
		{"bad density", func(s *Scenario) { s.Traffic.Density = 1.5 }, "", "traffic.density"},
		{"event too late", func(s *Scenario) {
			s.Events = []event{{At: 100, Action: "cut", Between: [2]int{0, 1}}}
		}, "", "outside 0..99"},
		{"cut non-adjacent", func(s *Scenario) {
			s.Events = []event{{At: 1, Action: "cut", Between: [2]int{0, 2}}}
		}, "", "non-adjacent"},
		{"noise bad rate", func(s *Scenario) {
			s.Events = []event{{At: 1, Action: "noise", Between: [2]int{0, 1}, Rate: 0.9}}
		}, "", "noise rate"},
		{"bad node", func(s *Scenario) {
			s.Events = []event{{At: 1, Action: "node-fail", Node: 9}}
		}, "", "references node"},
		{"bad action", func(s *Scenario) {
			s.Events = []event{{At: 1, Action: "meteor"}}
		}, "", "unknown action"},
		{"unknown assert circuit", func(s *Scenario) {
			s.Assert.Circuits = []circuitAssert{{Circuit: "ghost"}}
		}, "", "unknown circuit"},

		// Accepted at one time and inert: a negative window scripts nothing.
		{"cut negative ticks", func(s *Scenario) {
			s.Events = []event{{At: 1, Action: "cut", Between: [2]int{0, 1}, Ticks: -400}}
		}, "", "events[0].ticks is negative"},
		{"negative interval", func(s *Scenario) { s.Traffic.Interval = -2 }, "", "traffic.interval is negative"},
		{"negative bringup_budget", func(s *Scenario) { s.BringUpBudget = -1 }, "", "bringup_budget is negative"},
		{"negative delay", func(s *Scenario) { s.Ring.Delay = -1 }, "", "ring.delay is negative"},
		{"negative jitter", func(s *Scenario) { s.Ring.Jitter = -1 }, "", "ring.jitter is negative"},
		{"negative wtr", func(s *Scenario) { s.Ring.WTR = -1 }, "", "ring.wtr is negative"},
		{"restart_period has no block", nil,
			`{"name": "x", "ring": {"nodes": 4, "circuits": [{"name": "c0", "a": 0, "b": 2}]}, "links": {"restart_period": -1}, "duration": 100, "assert": {}}`,
			`unknown field "links"`},
		{"removed key is refused", nil,
			`{"name": "x", "ring": {"nodes": 4, "circuits": [{"name": "c0", "a": 0, "b": 2}]}, "slo": {"failover_budget_ticks": 400}, "duration": 100, "assert": {}}`,
			`unknown field "failover_budget_ticks"`},
		{"removed ring.slots is refused", nil,
			`{"name": "x", "ring": {"nodes": 4, "slots": 4, "circuits": [{"name": "c0", "a": 0, "b": 2}]}, "duration": 100, "assert": {}}`,
			`unknown field "slots"`},
		{"fleet block is refused", nil,
			`{"name": "x", "ring": {"nodes": 4, "circuits": [{"name": "c0", "a": 0, "b": 2}]}, "duration": 100, "assert": {}, "fleet": {"instances": ["127.0.0.1:9100"], "assert": {"require_up": true}}}`,
			`unknown field "fleet"`},
		// Accepted, then refused by Run with a structural error.
		{"circuit a == b", func(s *Scenario) { s.Ring.Circuits[0].B = 0 }, "", "bad endpoints 0,0"},
		{"endpoint outside ring", func(s *Scenario) { s.Ring.Circuits[0].B = 7 }, "", "bad endpoints 0,7"},
		{"negative slot", func(s *Scenario) { s.Ring.Circuits[0].Slot = -1 }, "", "ring.circuits[0].slot is negative"},
		{"slot outside capacity", func(s *Scenario) { s.Ring.Circuits[0].Slot = 4 }, "", "outside working capacity"},

		// One topology per document, and no field it would ignore.
		{"two topologies in one document", func(s *Scenario) { s.Protected = &ProtectedSpec{} }, "", "exactly one topology"},
		{"no topology", func(s *Scenario) { s.Ring = nil }, "", "exactly one topology"},
		{"engine ok", engine, "", ""},
		{"engine no links", func(s *Scenario) { engine(s); s.Engine.Links = 0 }, "", "engine.links 0"},
		{"engine bad line", func(s *Scenario) { engine(s); s.Engine.Line = "sctp" }, "", "unknown engine line"},
		{"engine imix", func(s *Scenario) { engine(s); s.Traffic.Mix = "imix" }, "", "fixed:N"},
		{"engine storm", func(s *Scenario) { engine(s); s.Traffic.Density = 0.5 }, "", "does not read traffic.density"},
		{"engine switches", func(s *Scenario) {
			engine(s)
			s.Assert.Circuits = []circuitAssert{{Circuit: "port1", Switches: &one}}
		}, "", "does not read switches"},
		{"engine cut", func(s *Scenario) { engine(s); s.Events = []event{{At: 1, Action: "cut"}} }, "", "unknown action"},
		{"engine two stalls", func(s *Scenario) {
			engine(s)
			s.Events = []event{{At: 1, Action: "stall", Ticks: 5}, {At: 20, Action: "stall", Ticks: 5}}
		}, "", "one stall window"},
		{"p5 ok", p5stm1, "", ""},
		{"p5 bad width", func(s *Scenario) { p5stm1(s); s.P5.Width = 16 }, "", "8 or 32"},
		{"p5 no frames", func(s *Scenario) { p5stm1(s); s.P5.Frames = 0 }, "", "p5.frames 0"},
		{"p5 slo", func(s *Scenario) { p5stm1(s); s.SLO.P99BudgetTicks = 8 }, "", "does not read slo"},
		{"p5 section between", func(s *Scenario) {
			p5stm1(s)
			s.Events = []event{{At: 1, Action: "cut", Between: [2]int{0, 1}}}
		}, "", "does not read between"},
		{"p5 loopback duration", func(s *Scenario) { p5loop(s); s.Duration = 10 }, "", "does not read duration"},
		{"p5 loopback event", func(s *Scenario) { p5loop(s); s.Events = []event{{Action: "slip"}} }, "", "unknown action"},
		{"protected node event", func(s *Scenario) {
			s.Ring, s.Protected = nil, &ProtectedSpec{}
			s.Events = []event{{At: 1, Action: "node-fail"}}
		}, "", "unknown action"},
		{"oversize mix", func(s *Scenario) { s.Traffic.Mix = "fixed:2000" }, "", "bad traffic mix"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.doc != "" {
				_, err = parse([]byte(c.doc))
			} else {
				s := base()
				c.mut(s)
				err = s.validate()
			}
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestEveryScenarioKeyIsSet holds every key of the scenario language,
// walked from the document's JSON tags, to a committed
// scenarios/**/*.json that sets it. A key only the tests set is a
// constant in disguise: every value it opens is one more run the
// committed drills never make. Keys are dotted paths; an array's
// elements share their array's path. A kept entry is exempt for its
// reason; one that is gone, or that a committed scenario now sets,
// fails.
func TestEveryScenarioKeyIsSet(t *testing.T) {
	kept := map[string]string{}
	set := map[string]bool{}
	var walkType func(rt reflect.Type, prefix string)
	walkType = func(rt reflect.Type, prefix string) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < rt.NumField(); i++ {
			key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			set[prefix+key] = false
			walkType(rt.Field(i).Type, prefix+key+".")
		}
	}
	walkType(reflect.TypeOf(Scenario{}), "")

	var walkDoc func(v any, prefix string)
	walkDoc = func(v any, prefix string) {
		switch v := v.(type) {
		case map[string]any:
			for key, e := range v {
				set[prefix+key] = true
				walkDoc(e, prefix+key+".")
			}
		case []any:
			for _, e := range v {
				walkDoc(e, prefix)
			}
		}
	}
	err := filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		walkDoc(doc, "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for key, ok := range set {
		switch {
		case kept[key] != "" && ok:
			bad = append(bad, "scenario key "+key+" is kept but a committed scenario sets it; drop it from kept")
		case kept[key] == "" && !ok:
			bad = append(bad, "scenario key "+key+" is set by no committed scenario; make it a constant or delete it")
		}
	}
	for key := range kept {
		if _, ok := set[key]; !ok {
			bad = append(bad, "scenario key "+key+" is kept but no longer exists")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

func TestTrafficDist(t *testing.T) {
	for _, mix := range []string{"", "imix", "fixed:64", "uniform:40:1500"} {
		if _, err := (trafficSpec{Mix: mix}).dist(); err != nil {
			t.Errorf("mix %q rejected: %v", mix, err)
		}
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	d := mkDatagram(1, 0, 12345, 576)
	if len(d) != 576 || d[0] != 0x45 {
		t.Fatalf("datagram = %d bytes, first %#x", len(d), d[0])
	}
	ep := &endpoint{expect: map[uint32][]byte{12345: d}}
	ep.verify(append([]byte(nil), d...))
	if ep.recv != 1 || ep.corrupt != 0 {
		t.Fatalf("clean verify: recv=%d corrupt=%d", ep.recv, ep.corrupt)
	}
	// Same datagram again: seq no longer outstanding → corrupt.
	ep.verify(d)
	if ep.corrupt != 1 {
		t.Fatalf("duplicate not flagged: corrupt=%d", ep.corrupt)
	}
	// Damaged payload with a known seq.
	d2 := mkDatagram(1, 0, 7, 64)
	ep.expect[7] = d2
	bad := append([]byte(nil), d2...)
	bad[20] ^= 0x40
	ep.verify(bad)
	if ep.corrupt != 2 {
		t.Fatalf("damaged payload not flagged: corrupt=%d", ep.corrupt)
	}
}

// TestStormKeepsTheLedgerFields: an escape storm overwrites only the
// pattern octets — the header verify keys on survives — and at density
// one leaves nothing but flags and escapes.
func TestStormKeepsTheLedgerFields(t *testing.T) {
	d := mkDatagram(2, 1, 99, 40)
	want := append([]byte(nil), d[:8]...)
	storm(d, 1, netsim.NewRand(5))
	if !bytes.Equal(d[:8], want) {
		t.Fatalf("header % x, want % x", d[:8], want)
	}
	for i, b := range d[8:] {
		if b != 0x7E && b != 0x7D {
			t.Fatalf("octet %d = %#02x at density 1", 8+i, b)
		}
	}
}

// TestFailureProducesCaptures runs a drill whose assertion cannot hold
// and checks the report points at .p5fr capture files — the ergonomics
// satellite: a failed drill must name its black boxes.
func TestFailureProducesCaptures(t *testing.T) {
	zero := uint64(0)
	s := &Scenario{
		Name:     "impossible",
		Ring:     &RingSpec{Nodes: 4, Circuits: []circuitSpec{{Name: "c0", A: 0, B: 2, Slot: 0}}},
		Duration: 600,
		Events:   []event{{At: 100, Action: "cut", Between: [2]int{0, 1}}},
		Assert: assertions{Circuits: []circuitAssert{
			// A cut always moves the selector once; demanding zero must fail.
			{Circuit: "c0", Switches: &zero},
		}},
	}
	res, err := s.Run(RunConfig{Observation: gigapos.Observation{Flight: &flight.Config{Dir: t.TempDir()}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("impossible assertion passed")
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures reported")
	}
	if len(res.CapturePaths) == 0 {
		t.Fatal("failing drill produced no capture paths")
	}
	found := false
	for _, p := range res.CapturePaths {
		if strings.Contains(p, "scenario-fail") && strings.HasSuffix(p, ".p5fr") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scenario-fail capture among %v", res.CapturePaths)
	}
}

// FuzzScenarioParse holds Validate to being the single gate. On any
// bytes parse must not panic, and every document it accepts must run —
// its clock, bring-up budget, P5 frames and engine pairs capped so an
// input costs milliseconds, events past the cap dropped — without an
// error or a panic. Socket engines (they need a peer process) are
// parsed, not run. The corpus is every committed scenario plus
// testdata/fuzz: the documents TestParseValidation's rows describe, and
// six that name a scenario key since made a constant (drain,
// reorder_every, ais_threshold, p5 errors, and ring slots twice), which
// parse now refuses.
func FuzzScenarioParse(f *testing.F) {
	files, _ := filepath.Glob("../../scenarios/*.json")
	net, _ := filepath.Glob("../../scenarios/net/*.json")
	for _, name := range append(files, net...) {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	const maxTicks = 40
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parse(data)
		if err != nil || s.Engine != nil && s.Engine.socket() {
			return
		}
		if s.P5 != nil {
			s.P5.Frames = min(s.P5.Frames, 4)
		} else {
			s.BringUpBudget = min(max(s.BringUpBudget, maxTicks), maxTicks)
		}
		if s.Engine != nil {
			s.Engine.Links = min(s.Engine.Links, 4)
		}
		s.Duration = min(s.Duration, maxTicks)
		kept := s.Events[:0]
		for _, e := range s.Events {
			if e.At < s.Duration {
				kept = append(kept, e)
			}
		}
		s.Events = kept
		if _, err := s.Run(RunConfig{}); err != nil {
			t.Fatalf("Parse accepted a document Run refuses: %v\n%s", err, data)
		}
	})
}
