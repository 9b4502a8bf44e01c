package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func TestParseValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:     "x",
			Ring:     RingSpec{Nodes: 4},
			Circuits: []CircuitSpec{{Name: "c0", A: 0, B: 2, Slot: 0}},
			Duration: 100,
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"ok", func(*Scenario) {}, ""},
		{"no name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"bad mode", func(s *Scenario) { s.Ring.Mode = "ulsr" }, "unknown ring mode"},
		{"bad size", func(s *Scenario) { s.Ring.Nodes = 1 }, "outside 2..16"},
		{"no duration", func(s *Scenario) { s.Duration = 0 }, "duration"},
		{"no circuits", func(s *Scenario) { s.Circuits = nil }, "no circuits"},
		{"dup circuit", func(s *Scenario) {
			s.Circuits = append(s.Circuits, CircuitSpec{Name: "c0", A: 1, B: 3, Slot: 1})
		}, "duplicate circuit"},
		{"bad mix", func(s *Scenario) { s.Traffic.Mix = "elephant" }, "unknown traffic mix"},
		{"bad fixed", func(s *Scenario) { s.Traffic.Mix = "fixed:4" }, "bad traffic mix"},
		{"bad density", func(s *Scenario) { s.Traffic.Density = 1.5 }, "traffic.density"},
		{"event too late", func(s *Scenario) {
			s.Events = []Event{{At: 100, Action: "cut", Between: [2]int{0, 1}}}
		}, "outside 0..99"},
		{"cut non-adjacent", func(s *Scenario) {
			s.Events = []Event{{At: 1, Action: "cut", Between: [2]int{0, 2}}}
		}, "non-adjacent"},
		{"noise bad rate", func(s *Scenario) {
			s.Events = []Event{{At: 1, Action: "noise", Between: [2]int{0, 1}, Rate: 0.9}}
		}, "noise rate"},
		{"bad node", func(s *Scenario) {
			s.Events = []Event{{At: 1, Action: "node-fail", Node: 9}}
		}, "references node"},
		{"bad action", func(s *Scenario) {
			s.Events = []Event{{At: 1, Action: "meteor"}}
		}, "unknown action"},
		{"unknown assert circuit", func(s *Scenario) {
			s.Assert.Circuits = []CircuitAssert{{Circuit: "ghost"}}
		}, "unknown circuit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.mut(s)
			err := s.Validate()
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

func TestTrafficDist(t *testing.T) {
	for _, mix := range []string{"", "imix", "fixed:64", "uniform:40:1500"} {
		if _, _, err := (TrafficSpec{Mix: mix}).dist(); err != nil {
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
		Ring:     RingSpec{Nodes: 4},
		Circuits: []CircuitSpec{{Name: "c0", A: 0, B: 2, Slot: 0}},
		Duration: 600,
		Events:   []Event{{At: 100, Action: "cut", Between: [2]int{0, 1}}},
		Assert: Assertions{Circuits: []CircuitAssert{
			// A cut always moves the selector once; demanding zero must fail.
			{Circuit: "c0", Switches: &zero},
		}},
	}
	res, err := s.Run(RunConfig{CaptureDir: t.TempDir()})
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
