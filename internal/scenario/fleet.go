package scenario

import (
	"fmt"

	"repro/internal/obsnet"
)

// FleetSpec extends a run with distributed SLO assertions: after the
// in-process run, the listed live p5sim instances are scraped
// (/metrics + /status) and graded as one deployment. This is how a
// committed scenario file asserts on a multi-process topology — version
// skew, per-line one-way latency, fleet-wide burn rates — without
// bespoke shell glue.
type FleetSpec struct {
	// Instances are the telemetry addresses (host:port or URL) to
	// scrape.
	Instances []string `json:"instances"`
	// Assert holds the fleet-wide gates; absent fields are unchecked.
	Assert FleetAssert `json:"assert"`
}

// FleetAssert grades the scraped fleet. All checks span every instance.
type FleetAssert struct {
	// RequireUp demands every scraped transport report Up.
	RequireUp *bool `json:"require_up,omitempty"`
	// MaxOneWayP99US bounds each line's one-way latency p99 (lines with
	// no samples yet are skipped — an idle line is not a latency breach).
	MaxOneWayP99US *int64 `json:"max_oneway_p99_us,omitempty"`
	// MaxWorstBurn bounds every instance's slo_worst_burn_rate series.
	MaxWorstBurn *float64 `json:"max_worst_burn,omitempty"`
	// SameWireVersion demands all instances speak one P5LT version.
	SameWireVersion *bool `json:"same_wire_version,omitempty"`
}

// count reports how many individual checks the fleet block holds.
func (f *FleetSpec) count() int {
	if f == nil {
		return 0
	}
	return len(set(f.Assert, ""))
}

// grade evaluates the fleet assertions over the scraped instances,
// returning one Failure per violation (Circuit carries the instance
// address). An unreachable instance fails every run — a distributed
// drill cannot pass blind.
func (f *FleetSpec) grade(instances []obsnet.Instance) []Failure {
	var fails []Failure
	fail := func(instance, format string, args ...any) {
		fails = append(fails, Failure{Circuit: instance, Msg: fmt.Sprintf(format, args...)})
	}
	versions := map[int]bool{}
	for _, in := range instances {
		if in.Err != nil {
			fail(in.Addr, "fleet scrape failed: %v", in.Err)
			continue
		}
		versions[in.Status.Info.WireVersion] = true
		for _, t := range in.Status.Transports {
			if f.Assert.RequireUp != nil && *f.Assert.RequireUp && !t.Up {
				fail(in.Addr, "line %s is down", t.Name)
			}
			if f.Assert.MaxOneWayP99US != nil && t.Latency != nil && t.Latency.Samples > 0 &&
				t.Latency.OneWayP99US > *f.Assert.MaxOneWayP99US {
				fail(in.Addr, "line %s one-way p99 = %dµs, want ≤ %dµs",
					t.Name, t.Latency.OneWayP99US, *f.Assert.MaxOneWayP99US)
			}
		}
		if f.Assert.MaxWorstBurn != nil {
			for _, sr := range in.Series {
				if sr.Name == "slo_worst_burn_rate" && sr.Value > *f.Assert.MaxWorstBurn {
					fail(in.Addr, "slo %s worst burn = %.2f, want ≤ %.2f",
						sr.Label("slo"), sr.Value, *f.Assert.MaxWorstBurn)
				}
			}
		}
	}
	if f.Assert.SameWireVersion != nil && *f.Assert.SameWireVersion && len(versions) > 1 {
		fail("", "wire version skew: %d distinct versions across the fleet", len(versions))
	}
	return fails
}
