// Package scenario is the one way p5sim runs anything: a JSON document
// names exactly one topology — a SONET ring, a 1+1 protected pair, a
// line-card engine or the cycle-accurate P5 model — and describes the
// traffic, a script of failures and the pass/fail assertions the run is
// held to. The runner builds the topology, drives it, injects the
// scripted faults, prints the topology's report and grades it, so a new
// failure drill or a new mode is a committed data file, not code.
//
// Times are virtual ticks: one SONET frame time (125 µs) or one engine
// step. Event offsets count from the end of bring-up ("traffic start"),
// so a scenario does not depend on how long LCP/IPCP negotiation takes.
// validate is the single gate: a document it accepts runs, and every
// field it accepts is read by the chosen topology.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"

	"repro/internal/topo"
)

// Scenario is one run, as committed to scenarios/*.json.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Exactly one topology (DESIGN.md §12 has the table).
	Ring      *RingSpec      `json:"ring,omitempty"`
	Protected *ProtectedSpec `json:"protected,omitempty"`
	Engine    *engineSpec    `json:"engine,omitempty"`
	P5        *p5Spec        `json:"p5,omitempty"`

	Traffic trafficSpec `json:"traffic,omitempty"`
	SLO     sloSpec     `json:"slo,omitempty"`

	// Duration is how long the run lasts after bring-up, in ticks (the
	// P5 loopback has no line clock and runs until its frames drain).
	Duration int64 `json:"duration"`
	// BringUpBudget bounds LCP/IPCP negotiation (default 4000 ticks).
	BringUpBudget int64 `json:"bringup_budget,omitempty"`

	Events []event    `json:"events,omitempty"`
	Assert assertions `json:"assert"`
}

// RingSpec parameterises the topo.Ring under a drill and the circuits
// provisioned over it, each carrying a PPP Link pair on its ports.
type RingSpec struct {
	Nodes    int           `json:"nodes"`
	Mode     string        `json:"mode"` // "upsr" (default) or "blsr"
	Delay    int64         `json:"delay,omitempty"`
	Jitter   int64         `json:"jitter,omitempty"`
	Seed     uint64        `json:"seed,omitempty"`
	WTR      int64         `json:"wtr,omitempty"`
	Circuits []circuitSpec `json:"circuits"`
}

// circuitSpec provisions one bidirectional ring circuit.
type circuitSpec struct {
	Name string `json:"name"`
	A    int    `json:"a"`
	B    int    `json:"b"`
	Slot int    `json:"slot"`
}

// ProtectedSpec selects the 1+1 protected pair: two supervised PPP ends
// on an STM-1 working and protection line under bidirectional,
// revertive GR-253 linear APS (wait-to-restore 100 ticks). The pair is
// the circuit "prot"; line faults hit the working line a → z.
type ProtectedSpec struct{}

// engineSpec sizes a line-card engine: Links PPP pairs, each the circuit
// port<i>, across GOMAXPROCS shard workers.
type engineSpec struct {
	Links int `json:"links"`
	// Line carries every pair: "pipe" (in process), "stm16" (an STM-16
	// sonet.Line per direction), or "udp"/"tcp" — one half of the pairs
	// here, the other in a peer process (RunConfig.Listen/Dial).
	Line string `json:"line,omitempty"`
}

// p5Spec runs the cycle-accurate P5 model on Frames datagrams. Its one
// circuit is "p5".
type p5Spec struct {
	Width  int `json:"width"` // datapath bits: 8 or 32
	Frames int `json:"frames"`
	// Density is netsim's escape density: the probability that a payload
	// octet is a flag or an escape, in every datagram.
	Density float64 `json:"density,omitempty"`
	// Line is "loopback" (the line model turns the octets straight
	// round) or "stm1" (transmitter → STM-1 section with the scripted
	// faults → receiver, the OAM watching the section).
	Line string `json:"line,omitempty"`
}

// trafficSpec is the offered load.
type trafficSpec struct {
	// Mix is "imix" (default), "fixed:N", or "uniform:MIN:MAX"; sizes
	// are 12..1500 octets. An engine sends one fixed size.
	Mix string `json:"mix,omitempty"`
	// Density is the probability that a payload octet is a flag or an
	// escape — what HDLC must stuff — in every second datagram of each
	// direction; the ones between keep the plain pattern, so a storm
	// always alternates with clean traffic and both codecs cross
	// between their span and block paths at every frame. Zero
	// (default) is the plain pattern throughout.
	Density float64 `json:"density,omitempty"`
	// Interval is the ticks between datagrams per direction (default 2).
	Interval int64 `json:"interval,omitempty"`
	// Seed drives the size draws (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// sloSpec maps onto flight.SLOConfig; zero fields keep the repo
// defaults.
type sloSpec struct {
	FrameLossTarget float64 `json:"loss_target,omitempty"`
	P99BudgetTicks  int64   `json:"p99_budget_ticks,omitempty"`
}

// event is one scripted action, At ticks after traffic start. Line
// faults land on the ring fibre Between two adjacent nodes (both
// directions), the protected pair's working line, or the P5 section:
//
//   - "cut":          LOS, Ticks long
//   - "noise":        seeded bit errors at Rate, Ticks long
//   - "slip":         one extra octet at the frame boundary
//   - "dup":          the last 16 line octets sent again
//   - "node-fail":    ring Node goes dark (processes nothing, fibres unlit)
//   - "node-restore": ring Node comes back
//   - "stall":        an engine's port 0 holds its transmit chunks, Ticks long
//   - "blackout":     an engine's port 0 line goes dark, Ticks long
//
// Ticks 0 means "until the end of the run".
type event struct {
	At      int64   `json:"at"`
	Action  string  `json:"action"`
	Between [2]int  `json:"between,omitempty"`
	Ticks   int64   `json:"ticks,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Node    int     `json:"node,omitempty"`
}

// reads names the fields each event action reads besides at and action;
// between is read on a ring only.
var reads = map[string]string{
	"cut": "between ticks", "noise": "between ticks rate seed", "slip": "between", "dup": "between",
	"node-fail": "node", "node-restore": "node", "stall": "ticks", "blackout": "ticks",
}

// assertions are the pass/fail gates evaluated when the run ends.
type assertions struct {
	Circuits []circuitAssert `json:"circuits,omitempty"`
	// MinResyncs requires at least this many frame-alignment
	// reacquisitions after traffic start (resync-under-noise drills).
	MinResyncs *uint64 `json:"min_resyncs,omitempty"`
}

// count reports how many individual checks the assertion block holds.
func (a assertions) count() int {
	n := 0
	if a.MinResyncs != nil {
		n++
	}
	for _, c := range a.Circuits {
		for _, f := range set(c, "") {
			if f != "circuit" {
				n++
			}
		}
	}
	return n
}

// circuitAssert grades one circuit, or every circuit when Circuit is
// empty. Absent (null) fields are not checked; counters aggregate both
// endpoints.
type circuitAssert struct {
	Circuit string `json:"circuit,omitempty"`
	// Switches / MaxSwitches bound total path-selector movements.
	Switches    *uint64 `json:"switches,omitempty"`
	MaxSwitches *uint64 `json:"max_switches,omitempty"`
	// MaxFailoverTicks bounds the longest outage a switch healed — the
	// 50 ms GR-253 budget is 400.
	MaxFailoverTicks *int64 `json:"max_failover_ticks,omitempty"`
	// LCPRenegotiations counts LCP Opened→down edges after bring-up
	// (0 = the run was hitless at the control plane).
	LCPRenegotiations *int `json:"lcp_renegotiations,omitempty"`
	// Corrupted counts delivered datagrams whose payload did not match
	// what was sent (0 = the FCS caught every damaged frame).
	Corrupted *int `json:"corrupted,omitempty"`
	// MinDeliveryRatio is received/sent across both directions.
	MinDeliveryRatio *float64 `json:"min_delivery_ratio,omitempty"`
	// RxErrors counts damaged frames the receivers discarded after
	// bring-up.
	RxErrors *int `json:"rx_errors,omitempty"`
	// Down asserts the path state at the end of the run (true: the
	// circuit must be dead at one or both ends).
	Down *bool `json:"down,omitempty"`
	// SLOGreen asserts neither endpoint's SLO alarm is raised at the
	// end of the run.
	SLOGreen *bool `json:"slo_green,omitempty"`
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parse decodes and validates a scenario document. A field the format
// does not have is an error, not a silent no-op.
func parse(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// shape is what validate needs to know about the chosen topology.
type shape struct {
	name     string
	circuits []string
	// ignores lists the shared fields and assertion checks the topology
	// does not read; actions lists the event actions it accepts.
	ignores, actions string
}

// shape checks the one topology block and describes it.
func (s *Scenario) shape() (shape, error) {
	n := 0
	for _, set := range []bool{s.Ring != nil, s.Protected != nil, s.Engine != nil, s.P5 != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return shape{}, fmt.Errorf("want exactly one topology (ring, protected, engine, p5), got %d", n)
	}
	switch {
	case s.Ring != nil:
		names, err := s.Ring.check()
		return shape{"ring", names, "", "cut noise slip dup node-fail node-restore"}, err
	case s.Protected != nil:
		return shape{"protected", []string{"prot"}, "min_resyncs", "cut noise slip dup"}, nil
	case s.Engine != nil:
		return s.Engine.check(s.Traffic)
	}
	return s.P5.check()
}

// validate checks the document before any hardware is built: the
// topology block, and every shared field against what that topology
// reads, so no field is accepted only to be ignored.
func (s *Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: "+format, append([]any{s.Name}, args...)...)
	}
	if path := negative(reflect.ValueOf(*s), ""); path != "" {
		return fail("%s is negative", path)
	}
	sh, err := s.shape()
	if err != nil {
		return fail("%v", err)
	}
	if _, err := s.Traffic.dist(); err != nil {
		return fail("%v", err)
	}
	if d := s.Traffic.Density; d > 1 {
		return fail("traffic.density %g outside [0, 1]", d)
	}
	used := set(s.Traffic, "traffic.")
	if s.SLO != (sloSpec{}) {
		used = append(used, "slo")
	}
	for name, v := range map[string]bool{"duration": s.Duration != 0, "bringup_budget": s.BringUpBudget != 0, "min_resyncs": s.Assert.MinResyncs != nil} {
		if v {
			used = append(used, name)
		}
	}
	for _, a := range s.Assert.Circuits {
		if a.Circuit != "" && !slices.Contains(sh.circuits, a.Circuit) {
			return fail("assertion references unknown circuit %q", a.Circuit)
		}
		used = append(used, set(a, "")...)
	}
	for _, f := range used {
		if has(sh.ignores, f) {
			return fail("the %s topology does not read %s", sh.name, f)
		}
	}
	if s.Duration <= 0 && !has(sh.ignores, "duration") {
		return fail("duration must be positive")
	}
	windows := map[string]bool{}
	for i, e := range s.Events {
		if !has(sh.actions, e.Action) {
			return fail("event %d has unknown action %q (the %s topology takes: %s)", i, e.Action, sh.name, sh.actions)
		}
		if e.At >= s.Duration {
			return fail("event %d at %d outside 0..%d", i, e.At, s.Duration-1)
		}
		for _, f := range set(e, "") {
			if f != "at" && f != "action" && (!has(reads[e.Action], f) || f == "between" && s.Ring == nil) {
				return fail("event %d: %s on the %s topology does not read %s", i, e.Action, sh.name, f)
			}
		}
		if e.Action == "noise" && (e.Rate == 0 || e.Rate > 0.5) {
			return fail("event %d noise rate %g outside (0, 0.5]", i, e.Rate)
		}
		if (e.Action == "stall" || e.Action == "blackout") && windows[e.Action] {
			return fail("event %d: port 0 has one %s window", i, e.Action)
		}
		windows[e.Action] = true
		if s.Ring == nil {
			continue
		}
		if has(reads[e.Action], "between") && !adjacent(e.Between[0], e.Between[1], s.Ring.Nodes) {
			return fail("event %d %s between non-adjacent nodes %v", i, e.Action, e.Between)
		}
		if has(reads[e.Action], "node") && e.Node >= s.Ring.Nodes {
			return fail("event %d references node %d of %d", i, e.Node, s.Ring.Nodes)
		}
	}
	return nil
}

// check builds the ring and its circuits — the topo package's own rules
// on size, slot capacity and endpoints — and returns the circuit names.
func (r *RingSpec) check() ([]string, error) {
	if len(r.Circuits) == 0 {
		return nil, fmt.Errorf("no circuits")
	}
	var names []string
	for _, c := range r.Circuits {
		switch {
		case c.Name == "":
			return nil, fmt.Errorf("circuit with no name")
		case slices.Contains(names, c.Name):
			return nil, fmt.Errorf("duplicate circuit %q", c.Name)
		}
		names = append(names, c.Name)
	}
	_, _, err := r.build()
	return names, err
}

// build makes the ring and provisions every circuit on it, returning
// each circuit's two ports.
func (r *RingSpec) build() (*topo.Ring, [][2]*topo.Port, error) {
	mode, ok := map[string]topo.Mode{"": topo.UPSR, "upsr": topo.UPSR, "blsr": topo.BLSR}[r.Mode]
	if !ok {
		return nil, nil, fmt.Errorf("unknown ring mode %q", r.Mode)
	}
	ring, err := topo.NewRing(topo.Config{
		Nodes: r.Nodes, Mode: mode,
		Delay: r.Delay, Jitter: r.Jitter, Seed: r.Seed, WTR: r.WTR,
	})
	if err != nil {
		return nil, nil, err
	}
	ports := make([][2]*topo.Port, len(r.Circuits))
	for i, c := range r.Circuits {
		pa, pb, err := ring.AddCircuit(topo.Circuit{Name: c.Name, A: c.A, B: c.B, Slot: c.Slot})
		if err != nil {
			return nil, nil, err
		}
		ports[i] = [2]*topo.Port{pa, pb}
	}
	return ring, ports, nil
}

// check validates the engine block; an engine sends one fixed size.
func (e *engineSpec) check(t trafficSpec) (shape, error) {
	sh := shape{name: e.Line + " engine", actions: "stall blackout",
		ignores: "traffic.density traffic.interval traffic.seed min_resyncs switches max_switches max_failover_ticks corrupted slo_green"}
	if e.Links < 1 || e.Links > 64 {
		return sh, fmt.Errorf("engine.links %d outside 1..64", e.Links)
	}
	if !has("pipe stm16 udp tcp", e.Line) {
		return sh, fmt.Errorf("unknown engine line %q (pipe, stm16, udp, tcp)", e.Line)
	}
	if !strings.HasPrefix(t.Mix, "fixed:") {
		return sh, fmt.Errorf("an engine sends one size: traffic.mix must be fixed:N")
	}
	for i := 0; i < e.Links; i++ {
		sh.circuits = append(sh.circuits, fmt.Sprintf("port%d", i))
	}
	return sh, nil
}

// socket reports whether the engine's lines are sockets to a peer.
func (e *engineSpec) socket() bool { return e.Line == "udp" || e.Line == "tcp" }

// check validates the P5 block.
func (p *p5Spec) check() (shape, error) {
	sh := shape{name: "p5", circuits: []string{"p5"}, actions: "cut noise slip dup",
		ignores: "traffic.density traffic.interval slo bringup_budget switches max_switches max_failover_ticks lcp_renegotiations down slo_green"}
	switch {
	case p.Width != 8 && p.Width != 32:
		return sh, fmt.Errorf("p5.width must be 8 or 32")
	case p.Frames < 1 || p.Frames > 10000:
		return sh, fmt.Errorf("p5.frames %d outside 1..10000", p.Frames)
	case p.Density > 1:
		return sh, fmt.Errorf("p5.density is a probability")
	case p.Line == "loopback":
		sh.name, sh.actions = "p5 loopback", ""
		sh.ignores += " duration min_resyncs"
	case p.Line != "stm1":
		return sh, fmt.Errorf("unknown p5 line %q (loopback, stm1)", p.Line)
	}
	return sh, nil
}

// set returns the JSON names, each after prefix, of v's non-zero fields.
func set(v any, prefix string) []string {
	var names []string
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if !rv.Field(i).IsZero() {
			names = append(names, prefix+strings.Split(rv.Type().Field(i).Tag.Get("json"), ",")[0])
		}
	}
	return names
}

// negative returns the JSON path of the first negative number in v, or
// "": no count, time, rate or bound in a document means anything below
// zero.
func negative(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return negative(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0]
			if p := negative(v.Field(i), strings.TrimPrefix(path+"."+name, ".")); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := negative(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Int, reflect.Int64:
		if v.Int() < 0 {
			return path
		}
	case reflect.Float64:
		if v.Float() < 0 {
			return path
		}
	}
	return ""
}

// has reports whether word is one of the space-separated words in list.
func has(list, word string) bool { return slices.Contains(strings.Fields(list), word) }

// adjacent reports whether ring nodes u and v (not negative) are
// neighbours on an n-node ring.
func adjacent(u, v, n int) bool { return u < n && v < n && ((u+1)%n == v || (v+1)%n == u) }
