package scenario

import (
	"strings"
	"testing"

	"repro/internal/obsnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func fleetInstance(addr string, up bool, p99 int64, wireVersion int, burn float64) obsnet.Instance {
	return obsnet.Instance{
		Addr: addr,
		Series: []telemetry.Series{
			{Name: "slo_worst_burn_rate", Labels: map[string]string{"slo": "default"}, Value: burn},
		},
		Status: transport.StatusDoc{
			Healthy: up,
			Info:    transport.BoardInfo{WireVersion: wireVersion},
			Transports: []transport.TransportStatus{{
				Name:    "port0_a",
				Up:      up,
				Latency: &transport.Latency{Samples: 10, OneWayP99US: p99},
			}},
		},
	}
}

func TestFleetGrade(t *testing.T) {
	up, same := true, true
	maxP99, maxBurn := int64(500), 2.0
	spec := &FleetSpec{
		Instances: []string{"a:1", "b:2"},
		Assert: FleetAssert{
			RequireUp:       &up,
			MaxOneWayP99US:  &maxP99,
			MaxWorstBurn:    &maxBurn,
			SameWireVersion: &same,
		},
	}
	if spec.count() != 4 {
		t.Fatalf("count = %d, want 4", spec.count())
	}

	// A healthy fleet passes clean.
	good := []obsnet.Instance{
		fleetInstance("a:1", true, 120, 2, 0.3),
		fleetInstance("b:2", true, 400, 2, 1.1),
	}
	if fails := spec.grade(good); len(fails) != 0 {
		t.Fatalf("healthy fleet failed: %v", fails)
	}

	// One degraded instance trips every gate it violates.
	bad := []obsnet.Instance{
		fleetInstance("a:1", true, 120, 2, 0.3),
		fleetInstance("b:2", false, 900, 1, 14.5),
	}
	fails := spec.grade(bad)
	var msgs []string
	for _, f := range fails {
		msgs = append(msgs, f.Circuit+": "+f.Msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{"is down", "one-way p99 = 900", "worst burn = 14.50", "wire version skew"} {
		if !strings.Contains(all, want) {
			t.Errorf("missing failure %q in:\n%s", want, all)
		}
	}
	if len(fails) != 4 {
		t.Errorf("failures = %d, want 4:\n%s", len(fails), all)
	}
}

func TestFleetGradeUnreachable(t *testing.T) {
	spec := &FleetSpec{Instances: []string{"c:3"}}
	fails := spec.grade([]obsnet.Instance{{Addr: "c:3", Err: errScrape("connection refused")}})
	if len(fails) != 1 || !strings.Contains(fails[0].Msg, "scrape failed") {
		t.Fatalf("unreachable instance: %v", fails)
	}
}

type errScrape string

func (e errScrape) Error() string { return string(e) }

func TestFleetValidation(t *testing.T) {
	doc := `{
		"name": "fleet-drill", "duration": 100,
		"ring": {"nodes": 2, "circuits": [{"name": "c0", "a": 0, "b": 1, "slot": 0}]},
		"assert": {},
		"fleet": {"instances": ["127.0.0.1:8080"], "assert": {"require_up": true}}
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Fleet == nil || len(s.Fleet.Instances) != 1 || s.Fleet.Assert.RequireUp == nil {
		t.Fatalf("fleet block decoded wrong: %+v", s.Fleet)
	}

	empty := strings.Replace(doc, `["127.0.0.1:8080"]`, `[]`, 1)
	if _, err := Parse([]byte(empty)); err == nil || !strings.Contains(err.Error(), "no instances") {
		t.Fatalf("empty fleet instances accepted: %v", err)
	}
}
