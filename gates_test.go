//go:build gates

package gigapos

// The three timing contracts of the repo, each over the very loop its
// benchmark times (bench_test.go) and judged by gates_decide_test.go:
//
//	go test -tags gates -run '^TestGate' -count=1 .
//
// They measure wall time, so they stay out of `go test ./...`; the
// allocation halves of the same contracts are exact and run in tier 1
// (TestLinkSteadyStateZeroAllocFlightArmed,
// TestEngineProfiledSteadyZeroAlloc, TestFusedPathZeroAlloc,
// TestLinkSteadyStateZeroAlloc, TestTransportUDPSteadyZeroAlloc).

import (
	"fmt"
	"testing"

	"repro/internal/hdlc"
)

const (
	// flightOverheadPct: the flight recorder's contract is an invisible
	// transmit fast path. Armed, that path is Header.Append plus a bare
	// Depart — one departure-ring store, one atomic add, no clock read;
	// measured ≈ 1 %.
	flightOverheadPct = 5

	// profOverheadPct: the stage profile's contract is that watching
	// the hot path does not bend it — an inlined nil-and-sampling test
	// per stamp site on 31 steps in 32, a clock read per stamp on the
	// sampled one, ~0.01 % of a step (E17). The tolerance is wider than
	// the recorder's because the whole engine step is inside it, worker
	// hand-off and barrier included; it is there to catch an armed-path
	// pathology, not to price the stamps.
	profOverheadPct = 8

	// oc48WireMBps is 2.488 Gb/s in octets: no payload and no frame size
	// may push a codec kernel, both directions of a Link pair or the
	// STM-16 section on one core under the line rate the paper is named
	// for. The floor is absolute, so it has no tolerance.
	oc48WireMBps = 311
)

// TestGateFlightOverhead: BenchmarkLinkEncodeSteadyFlight's op against
// BenchmarkLinkEncodeSteady's, ~4 µs each, in bursts of about a
// millisecond.
func TestGateFlightOverhead(t *testing.T) {
	best := bestBursts(400, 256, encodeSteady(t, false).step, encodeSteady(t, true).step)
	t.Logf("flight gate: base %.0f ns/op, armed %.0f ns/op (%+.1f%%, tolerance %d%%)",
		best[0], best[1], overheadPct(best[0], best[1]), flightOverheadPct)
	if err := checkOverhead("flight gate", best[0], best[1], flightOverheadPct); err != nil {
		t.Error(err)
	}
}

// TestGateProfileOverhead: BenchmarkEngineAggregateProfiled's engine
// against BenchmarkEngineAggregate's at links=8/shards=1. A burst is 64
// steps, two whole sampling periods, in one Run.
func TestGateProfileOverhead(t *testing.T) {
	const steps = 64
	base, _ := steadyEngine(t, 1, false)
	armed, col := steadyEngine(t, 1, true)
	best := bestBursts(200, 1, func() { base.Run(steps) }, func() { armed.Run(steps) })
	if col.Summary().Sampled == 0 {
		t.Fatal("stage profile armed but no steps sampled")
	}
	baseNs, armedNs := best[0]/steps, best[1]/steps
	t.Logf("prof gate: base %.0f ns/step, armed %.0f ns/step (%+.1f%%, tolerance %d%%)",
		baseNs, armedNs, overheadPct(baseNs, armedNs), profOverheadPct)
	if err := checkOverhead("prof gate", baseNs, armedNs, profOverheadPct); err != nil {
		t.Error(err)
	}
}

// TestGateOC48Floor: every point of the BenchmarkAppendFramed and
// BenchmarkTokenizerFeed sweeps (escape density 0–100 % at 1500 octets,
// frame size 40–1500 octets at 2 %), the transmit sweep's ACCMAll
// point (accmAllPoint), every size of BenchmarkLinkPair,
// and BenchmarkSONETSection's STM-16 map + demap counted in line
// octets, in bursts of about 256 KB of wire.
func TestGateOC48Floor(t *testing.T) {
	type point struct {
		name string
		op   steadyOp
	}
	var pts []point
	for _, pt := range sweepPoints() {
		pts = append(pts,
			point{"AppendFramed/" + pt.name, appendFramedOp(pt.payload, hdlc.ACCMNone)},
			point{"TokenizerFeed/" + pt.name, tokenizerFeedOp(t, pt.payload)})
	}
	pts = append(pts, point{"AppendFramed/" + accmAllPoint.name, appendFramedOp(accmAllPoint.payload, hdlc.ACCMAll)})
	for _, size := range sweepSizes {
		pts = append(pts, point{fmt.Sprintf("LinkPair/size=%d", size), linkPairOp(t, size)})
	}
	pts = append(pts, point{"SONET/STM16 map+demap", sonetSectionOp(t)})
	lowest, at := 0.0, ""
	for _, pt := range pts {
		ns := bestBursts(200, max(1, 256<<10/pt.op.octets), pt.op.step)[0]
		if err := checkFloor(pt.name, pt.op.octets, ns, oc48WireMBps); err != nil {
			t.Error(err)
		}
		got := wireMBps(pt.op.octets, ns)
		t.Logf("%s: %.0f MB/s", pt.name, got)
		if at == "" || got < lowest {
			lowest, at = got, pt.name
		}
	}
	t.Logf("oc48 floor: %d points, lowest %.0f MB/s of wire at %s (floor %d)", len(pts), lowest, at, oc48WireMBps)
}
