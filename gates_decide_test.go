package gigapos

// The estimator and the two verdicts behind the timing gates
// (gates_test.go, built with -tags gates). They sit outside that file
// so that tier 1 checks the decisions on synthetic timings; nothing
// here asserts a measured time.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// bestBursts times the variants in bursts of calls back-to-back calls,
// the variants taking turns burst by burst and swapping who goes first
// every round, and returns each variant's best burst in ns per call.
// This host's speed wanders ±30 % in phases that last from milliseconds
// to minutes, which no count of separate `go test -bench` runs averages
// out (one gate run saw 68 and 109 µs per engine step on the two halves
// of one comparison); variants interleaved inside one process meet the
// same phases, and the best burst of each is the code's own speed with
// the host's slow phases discarded — the same for a floor, where one
// burst at line rate shows the kernel reaches it.
func bestBursts(rounds, calls int, variants ...func()) []float64 {
	best := make([]float64, len(variants))
	for r := 0; r < rounds; r++ {
		for k := range variants {
			i := k
			if r%2 == 1 {
				i = len(variants) - 1 - k
			}
			t0 := time.Now()
			for c := 0; c < calls; c++ {
				variants[i]()
			}
			if ns := float64(time.Since(t0)) / float64(calls); r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// overheadPct is how much more the armed variant costs, in percent of
// the base.
func overheadPct(baseNs, armedNs float64) float64 { return 100 * (armedNs - baseNs) / baseNs }

// checkOverhead is the verdict of an overhead gate: the armed variant
// may cost at most tolPct percent more than the base.
func checkOverhead(gate string, baseNs, armedNs, tolPct float64) error {
	if baseNs <= 0 || armedNs <= 0 {
		return fmt.Errorf("%s: no measurement (base %.0f ns/op, armed %.0f ns/op)", gate, baseNs, armedNs)
	}
	if pct := overheadPct(baseNs, armedNs); pct > tolPct {
		return fmt.Errorf("%s: armed %.0f ns/op vs base %.0f ns/op is %+.1f%%, over %g%%", gate, armedNs, baseNs, pct, tolPct)
	}
	return nil
}

// wireMBps is the MB/s column of `go test -bench`: octets per op over
// ns per op, in units of 10⁶ octets per second.
func wireMBps(wire int, nsPerOp float64) float64 { return float64(wire) * 1e3 / nsPerOp }

// checkFloor is the verdict of a throughput floor on one sweep point.
func checkFloor(point string, wire int, nsPerOp, floorMBps float64) error {
	if wire <= 0 || nsPerOp <= 0 {
		return fmt.Errorf("%s: no measurement (%d octets in %.0f ns/op)", point, wire, nsPerOp)
	}
	if got := wireMBps(wire, nsPerOp); got < floorMBps {
		return fmt.Errorf("%s: best %.0f MB/s of wire, under the %g MB/s floor", point, got, floorMBps)
	}
	return nil
}

func TestBestBurstsTakesTurns(t *testing.T) {
	var order strings.Builder
	a := func() { order.WriteByte('a') }
	b := func() { order.WriteByte('b') }
	best := bestBursts(3, 2, a, b)
	if got, want := order.String(), "aabb"+"bbaa"+"aabb"; got != want {
		t.Errorf("burst order %q, want %q", got, want)
	}
	if len(best) != 2 || best[0] < 0 || best[1] < 0 {
		t.Errorf("best = %v, want one non-negative reading per variant", best)
	}
}

func TestCheckOverhead(t *testing.T) {
	for _, tc := range []struct {
		base, armed, tol float64
		ok               bool
	}{
		{1000, 1000, 5, true},
		{1000, 940, 5, true},   // armed faster than base: noise, not a failure
		{1000, 1050, 5, true},  // exactly at the tolerance
		{1000, 1051, 5, false}, // just over
		{68000, 73440, 8, true},
		{68000, 109000, 8, false}, // the two halves of PR 18's split comparison
		{0, 1000, 5, false},       // a variant that never ran
		{1000, 0, 5, false},
	} {
		err := checkOverhead("gate", tc.base, tc.armed, tc.tol)
		if (err == nil) != tc.ok {
			t.Errorf("checkOverhead(base %v, armed %v, tol %v) = %v, want ok=%v", tc.base, tc.armed, tc.tol, err, tc.ok)
		}
	}
	err := checkOverhead("flight gate", 1000, 1100, 5)
	if err == nil || !strings.Contains(err.Error(), "flight gate: armed 1100 ns/op vs base 1000 ns/op is +10.0%, over 5%") {
		t.Errorf("failure message = %v", err)
	}
}

func TestCheckFloor(t *testing.T) {
	// 48 wire octets in 100 ns is 480 MB/s; 1509 in 4852 ns is 311.0.
	if got := wireMBps(48, 100); got != 480 {
		t.Errorf("wireMBps(48, 100) = %v, want 480", got)
	}
	for _, tc := range []struct {
		wire  int
		ns    float64
		floor float64
		ok    bool
	}{
		{48, 100, 311, true},
		{311, 1000, 311, true}, // exactly on the floor
		{311, 1001, 311, false},
		{1509, 4852, 311, true},
		{1509, 4853, 311, false},
		{0, 100, 311, false}, // nothing measured
		{48, 0, 311, false},
	} {
		err := checkFloor("point", tc.wire, tc.ns, tc.floor)
		if (err == nil) != tc.ok {
			t.Errorf("checkFloor(%d octets, %v ns, floor %v) = %v, want ok=%v", tc.wire, tc.ns, tc.floor, err, tc.ok)
		}
	}
	err := checkFloor("LinkPair/size=40", 1000, 4000, 311)
	if err == nil || !strings.Contains(err.Error(), "LinkPair/size=40: best 250 MB/s of wire, under the 311 MB/s floor") {
		t.Errorf("failure message = %v", err)
	}
}
