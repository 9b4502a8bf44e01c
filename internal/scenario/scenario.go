// Package scenario is the declarative chaos-drill format: a JSON file
// describes a ring topology, the circuits over it, a traffic mix, a
// script of failures (fibre cuts, noise bursts, node failures) and the
// pass/fail service-level assertions the drill is held to. The runner
// builds the ring from internal/topo, rides a full PPP RingLink pair
// over every circuit, injects the scripted faults, and grades the run
// with the flight-recorder/SLO machinery — so a new failure drill is a
// committed data file, not a bespoke soak test.
//
// Times are virtual ticks (one SONET frame, 125 µs). Event offsets
// count from the end of bring-up ("traffic start"), so a scenario does
// not depend on how long LCP/IPCP negotiation takes on its topology.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/topo"
)

// Scenario is one failure drill, as committed to scenarios/*.json.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Ring     RingSpec      `json:"ring"`
	Circuits []CircuitSpec `json:"circuits"`
	Links    LinkSpec      `json:"links,omitempty"`
	Traffic  TrafficSpec   `json:"traffic,omitempty"`
	SLO      SLOSpec       `json:"slo,omitempty"`

	// Duration is how long the drill runs after bring-up, in ticks.
	Duration int64 `json:"duration"`
	// BringUpBudget bounds LCP/IPCP negotiation (default 4000 ticks).
	BringUpBudget int64 `json:"bringup_budget,omitempty"`

	Events []Event    `json:"events,omitempty"`
	Assert Assertions `json:"assert"`

	// Fleet, when present, adds distributed SLO assertions graded by
	// scraping live p5sim instances after the drill (fleet.go).
	Fleet *FleetSpec `json:"fleet,omitempty"`
}

// RingSpec parameterises the topo.Ring under the drill.
type RingSpec struct {
	Nodes        int    `json:"nodes"`
	Mode         string `json:"mode"` // "upsr" (default) or "blsr"
	Slots        int    `json:"slots,omitempty"`
	Delay        int64  `json:"delay,omitempty"`
	Jitter       int64  `json:"jitter,omitempty"`
	ReorderEvery int    `json:"reorder_every,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	WTR          int64  `json:"wtr,omitempty"`
	AISThreshold int    `json:"ais_threshold,omitempty"`
}

// Mode decodes the ring protection mode.
func (r RingSpec) mode() (topo.Mode, error) {
	switch r.Mode {
	case "", "upsr":
		return topo.UPSR, nil
	case "blsr":
		return topo.BLSR, nil
	}
	return 0, fmt.Errorf("scenario: unknown ring mode %q", r.Mode)
}

// CircuitSpec provisions one bidirectional circuit with a PPP link
// pair on its endpoints.
type CircuitSpec struct {
	Name string `json:"name"`
	A    int    `json:"a"`
	B    int    `json:"b"`
	Slot int    `json:"slot"`
}

// LinkSpec tunes the PPP endpoints riding the circuits.
type LinkSpec struct {
	// Supervise arms the self-healing supervisor on every endpoint.
	Supervise bool `json:"supervise,omitempty"`
	// RestartPeriod overrides the LCP/IPCP restart timer (default: the
	// ring-aware 64 ticks).
	RestartPeriod int64 `json:"restart_period,omitempty"`
}

// TrafficSpec is the IMIX-style offered load, sent on both directions
// of every circuit.
type TrafficSpec struct {
	// Mix is "imix" (default), "fixed:N", or "uniform:MIN:MAX".
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
	// Drain stops the senders this many ticks before the end so
	// in-flight datagrams settle (default 100).
	Drain int64 `json:"drain,omitempty"`
}

// SLOSpec maps onto flight.SLOConfig; zero fields keep the repo
// defaults.
type SLOSpec struct {
	Window              int64   `json:"window,omitempty"`
	FrameLossTarget     float64 `json:"loss_target,omitempty"`
	P99BudgetTicks      int64   `json:"p99_budget_ticks,omitempty"`
	FailoverBudgetTicks int64   `json:"failover_budget_ticks,omitempty"`
	AlarmBurn           float64 `json:"alarm_burn,omitempty"`
}

// Event is one scripted action, At ticks after traffic start.
//
//   - "cut":          LOS both directions of the fibre Between, Ticks long
//   - "noise":        seeded bit errors at Rate, both directions, Ticks long
//   - "node-fail":    Node goes dark (processes nothing, fibres unlit)
//   - "node-restore": Node comes back
//
// Ticks 0 means "until the end of the drill".
type Event struct {
	At      int64   `json:"at"`
	Action  string  `json:"action"`
	Between [2]int  `json:"between,omitempty"`
	Ticks   int64   `json:"ticks,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Node    int     `json:"node,omitempty"`
}

// Assertions are the pass/fail gates evaluated when the drill ends.
type Assertions struct {
	Circuits []CircuitAssert `json:"circuits,omitempty"`
	// MinResyncs requires at least this many span frame-alignment
	// reacquisitions after traffic start (resync-under-noise drills).
	MinResyncs *uint64 `json:"min_resyncs,omitempty"`
}

// Count reports how many individual checks the assertion block holds.
func (a Assertions) Count() int {
	n := 0
	if a.MinResyncs != nil {
		n++
	}
	for _, c := range a.Circuits {
		for _, set := range []bool{
			c.Switches != nil, c.MaxSwitches != nil, c.MaxFailoverTicks != nil,
			c.LCPRenegotiations != nil, c.Corrupted != nil,
			c.MinDeliveryRatio != nil, c.Down != nil, c.SLOGreen != nil,
		} {
			if set {
				n++
			}
		}
	}
	return n
}

// CircuitAssert grades one circuit. Absent (null) fields are not
// checked; counters aggregate both endpoints unless noted.
type CircuitAssert struct {
	Circuit string `json:"circuit"`
	// Switches / MaxSwitches bound total path-selector movements.
	Switches    *uint64 `json:"switches,omitempty"`
	MaxSwitches *uint64 `json:"max_switches,omitempty"`
	// MaxFailoverTicks bounds the longest outage a switch healed — the
	// 50 ms GR-253 budget is 400.
	MaxFailoverTicks *int64 `json:"max_failover_ticks,omitempty"`
	// LCPRenegotiations counts LCP Opened→down edges after bring-up
	// (0 = the drill was hitless at the control plane).
	LCPRenegotiations *int `json:"lcp_renegotiations,omitempty"`
	// Corrupted counts delivered datagrams whose payload did not match
	// what was sent (0 = the FCS caught every damaged frame).
	Corrupted *int `json:"corrupted,omitempty"`
	// MinDeliveryRatio is received/sent across both directions.
	MinDeliveryRatio *float64 `json:"min_delivery_ratio,omitempty"`
	// Down asserts the squelch state at the end of the drill (true:
	// the circuit must be dead at one or both ends).
	Down *bool `json:"down,omitempty"`
	// SLOGreen asserts neither endpoint's SLO alarm is raised at the
	// end of the drill.
	SLOGreen *bool `json:"slo_green,omitempty"`
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates a scenario document.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the document for structural errors before any
// hardware is built.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if _, err := s.Ring.mode(); err != nil {
		return err
	}
	if s.Ring.Nodes < 2 || s.Ring.Nodes > 16 {
		return fmt.Errorf("scenario %s: ring.nodes %d outside 2..16", s.Name, s.Ring.Nodes)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	}
	if len(s.Circuits) == 0 {
		return fmt.Errorf("scenario %s: no circuits", s.Name)
	}
	names := map[string]bool{}
	for _, c := range s.Circuits {
		if c.Name == "" {
			return fmt.Errorf("scenario %s: circuit with no name", s.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario %s: duplicate circuit %q", s.Name, c.Name)
		}
		names[c.Name] = true
	}
	if _, _, err := s.Traffic.dist(); err != nil {
		return err
	}
	if d := s.Traffic.Density; d < 0 || d > 1 {
		return fmt.Errorf("scenario %s: traffic.density %g outside [0, 1]", s.Name, d)
	}
	for i, e := range s.Events {
		if e.At < 0 || e.At >= s.Duration {
			return fmt.Errorf("scenario %s: event %d at %d outside 0..%d", s.Name, i, e.At, s.Duration-1)
		}
		switch e.Action {
		case "cut":
			if !adjacent(e.Between[0], e.Between[1], s.Ring.Nodes) {
				return fmt.Errorf("scenario %s: event %d cut between non-adjacent nodes %v", s.Name, i, e.Between)
			}
		case "noise":
			if !adjacent(e.Between[0], e.Between[1], s.Ring.Nodes) {
				return fmt.Errorf("scenario %s: event %d noise between non-adjacent nodes %v", s.Name, i, e.Between)
			}
			if e.Rate <= 0 || e.Rate > 0.5 {
				return fmt.Errorf("scenario %s: event %d noise rate %g outside (0, 0.5]", s.Name, i, e.Rate)
			}
		case "node-fail", "node-restore":
			if e.Node < 0 || e.Node >= s.Ring.Nodes {
				return fmt.Errorf("scenario %s: event %d references node %d of %d", s.Name, i, e.Node, s.Ring.Nodes)
			}
		default:
			return fmt.Errorf("scenario %s: event %d has unknown action %q", s.Name, i, e.Action)
		}
	}
	for _, a := range s.Assert.Circuits {
		if !names[a.Circuit] {
			return fmt.Errorf("scenario %s: assertion references unknown circuit %q", s.Name, a.Circuit)
		}
	}
	if s.Fleet != nil && len(s.Fleet.Instances) == 0 {
		return fmt.Errorf("scenario %s: fleet block with no instances", s.Name)
	}
	return nil
}

func adjacent(u, v, n int) bool {
	if u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	return (u+1)%n == v || (v+1)%n == u
}
