package p5

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/rtl"
)

// simCounts is every cycle-level observable a host-speed optimisation of
// the simulator must leave alone.
type simCounts struct {
	Now         int64
	LineWords   uint64
	FillLatency int64
	FillSpans   uint64
	GenHigh     int
	DetHigh     int
	GenStalls   uint64
	DetStalls   uint64
	Escaped     uint64
	Removed     uint64
	Overruns    uint64
	Good, Bad   uint64
	Wires       [7][3]uint64 // Transfers, Stalls, Occupied per wire, datapath order
	VCD         string       // sha256 prefix of the first goldenVCDCycles cycles' dump
}

const goldenVCDCycles = 2000

// goldenPayload draws n octets of which roughly density are flag/escape.
func goldenPayload(rng *rand.Rand, n int, density float64) []byte {
	p := make([]byte, n)
	for i := range p {
		switch {
		case rng.Float64() < density:
			p[i] = []byte{hdlc.Flag, hdlc.Escape}[rng.Intn(2)]
		default:
			for {
				p[i] = byte(rng.Intn(256))
				if p[i] != hdlc.Flag && p[i] != hdlc.Escape {
					break
				}
			}
		}
	}
	return p
}

// datapathWires lists the wires from tx's framer to rx's control unit.
func datapathWires(tx *Transmitter, rx *Receiver) [7]*rtl.Wire {
	return [7]*rtl.Wire{
		tx.Framer.Out, tx.CRC.Out, tx.Out, rx.In,
		rx.Delineator.Out, rx.Escape.Out, rx.CRC.Out,
	}
}

// runGoldenCorpus pushes the fixed corpus through a width-w loopback:
// clean, 2 % and 50 % escape density, one deliberate abort, and one line
// hit that plants two flags three octets apart (a runt between two
// FCS-failed fragments). Two bursts with an idle gap give two fill spans.
func runGoldenCorpus(t *testing.T, w int, fcs16 bool) simCounts {
	t.Helper()
	sys := NewSystem(w)
	if fcs16 {
		sys.OAM.Write(RegFCSMode, 2)
	}
	wires := datapathWires(sys.Tx, sys.Rx)
	h := sha256.New()
	vcd := rtl.NewVCD(h)
	for i, wire := range wires {
		vcd.WatchWire(fmt.Sprintf("w%d", i), wire, w)
	}
	octet := 0
	const hit = 2600 // line octet index of the first planted flag
	sys.Line.Corrupt = func(f rtl.Flit, _ int64) rtl.Flit {
		for i := 0; i < f.N; i++ {
			if octet == hit || octet == hit+3 {
				f.SetByte(i, hdlc.Flag)
			}
			octet++
		}
		return f
	}
	cycle := func() {
		sys.Cycle()
		if sys.Sim.Now() <= goldenVCDCycles {
			vcd.Sample(sys.Sim.Now())
		}
	}
	run := func() {
		for i := 0; sys.busy(); i++ {
			if i > 1_000_000 {
				t.Fatalf("w=%d fcs16=%t: did not drain", w, fcs16)
			}
			cycle()
		}
	}

	rng := rand.New(rand.NewSource(15))
	job := func(n int, density float64) TxJob {
		return TxJob{Protocol: ppp.ProtoIPv4, Payload: goldenPayload(rng, n, density)}
	}
	sys.Send(job(1500, 0), job(64, 0), job(40, 0), job(577, 0),
		job(1500, 0.02), job(300, 0.02))
	run()
	for i := 0; i < 5; i++ {
		cycle() // idle gap
	}
	aborted := job(100, 0.02)
	aborted.Abort = true
	sys.Send(job(1500, 0.5), job(200, 0.5), job(9, 0.5), aborted, job(1, 0), job(333, 0))
	run()

	c := simCounts{
		Now:         sys.Sim.Now(),
		LineWords:   sys.Line.Words,
		FillLatency: sys.FillLatency,
		FillSpans:   sys.FillSpans,
		GenHigh:     sys.Tx.Escape.HighWater(),
		DetHigh:     sys.Rx.Escape.HighWater(),
		GenStalls:   sys.Tx.Escape.InputStalls,
		DetStalls:   sys.Rx.Escape.InputStalls,
		Escaped:     sys.Tx.Escape.Escaped,
		Removed:     sys.Rx.Escape.Removed,
		Overruns:    sys.Rx.Delineator.Overruns,
		Good:        sys.Rx.Control.Good,
		Bad:         sys.Rx.Control.Bad,
		VCD:         fmt.Sprintf("%x", h.Sum(nil)[:8]),
	}
	for i, wire := range wires {
		c.Wires[i] = [3]uint64{wire.Transfers, wire.Stalls, wire.Occupied}
	}
	if sys.Rx.Control.Runts != 1 || sys.Rx.Delineator.Aborts != 1 {
		t.Errorf("w=%d fcs16=%t: corpus must produce one runt and one abort, got %d and %d",
			w, fcs16, sys.Rx.Control.Runts, sys.Rx.Delineator.Aborts)
	}
	return c
}

// TestSimulatedCountsGolden pins the simulated machine: the W = 1 and 4
// values were recorded on the commit before the simulator's host-speed
// work (PR 15), the W = 2 and 8 rows on the parent of PR 22, and none may
// ever move for a change that only makes a clock cheaper.
func TestSimulatedCountsGolden(t *testing.T) {
	want := map[string]simCounts{
		"w=1/fcs16=false": {
			Now: 7192, LineWords: 7167, FillLatency: 4, FillSpans: 2,
			GenHigh: 4, DetHigh: 1, GenStalls: 945, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{6172, 979, 7151}, {6216, 943, 7161}, {7167, 0, 7167}, {7167, 0, 7167}, {7155, 0, 7155}, {6228, 0, 6228}, {6228, 0, 6228}},
			VCD:   "024ba20396c6b58f",
		},
		"w=1/fcs16=true": {
			Now: 7170, LineWords: 7145, FillLatency: 4, FillSpans: 2,
			GenHigh: 4, DetHigh: 1, GenStalls: 945, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{6172, 961, 7133}, {6194, 943, 7139}, {7145, 0, 7145}, {7145, 0, 7145}, {7133, 0, 7133}, {6206, 0, 6206}, {6206, 0, 6206}},
			VCD:   "547063cebd44b718",
		},
		"w=2/fcs16=false": {
			Now: 3729, LineWords: 3584, FillLatency: 6, FillSpans: 2,
			GenHigh: 6, DetHigh: 3, GenStalls: 584, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{3088, 601, 3689}, {3110, 583, 3694}, {3584, 0, 3584}, {3584, 0, 3584}, {3577, 0, 3577}, {3112, 0, 3112}, {3112, 0, 3112}},
			VCD:   "b364c7bcd07cf8c5",
		},
		"w=2/fcs16=true": {
			Now: 3718, LineWords: 3573, FillLatency: 6, FillSpans: 2,
			GenHigh: 6, DetHigh: 3, GenStalls: 584, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{3088, 592, 3680}, {3099, 583, 3683}, {3573, 0, 3573}, {3573, 0, 3573}, {3566, 0, 3566}, {3101, 0, 3101}, {3101, 0, 3101}},
			VCD:   "093a388c23f96e3e",
		},
		"w=4/fcs16=false": {
			Now: 1946, LineWords: 1792, FillLatency: 6, FillSpans: 2,
			GenHigh: 12, DetHigh: 8, GenStalls: 352, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{1546, 361, 1907}, {1557, 352, 1909}, {1792, 0, 1792}, {1792, 0, 1792}, {1790, 0, 1790}, {1558, 0, 1558}, {1558, 0, 1558}},
			VCD:   "a44e7f587eede915",
		},
		"w=4/fcs16=true": {
			Now: 1948, LineWords: 1787, FillLatency: 6, FillSpans: 2,
			GenHigh: 12, DetHigh: 8, GenStalls: 355, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{1546, 364, 1910}, {1557, 355, 1912}, {1787, 0, 1787}, {1787, 0, 1787}, {1786, 0, 1786}, {1553, 0, 1553}, {1553, 0, 1553}},
			VCD:   "921e69324d846a5c",
		},
		"w=8/fcs16=false": {
			Now: 1029, LineWords: 897, FillLatency: 6, FillSpans: 2,
			GenHigh: 24, DetHigh: 16, GenStalls: 206, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{775, 215, 990}, {786, 206, 992}, {897, 0, 897}, {897, 0, 897}, {900, 0, 900}, {783, 0, 783}, {783, 0, 783}},
			VCD:   "cfca80bd143491b9",
		},
		"w=8/fcs16=true": {
			Now: 1026, LineWords: 894, FillLatency: 6, FillSpans: 2,
			GenHigh: 24, DetHigh: 16, GenStalls: 205, DetStalls: 0,
			Escaped: 926, Removed: 927, Overruns: 0, Good: 10, Bad: 4,
			Wires: [7][3]uint64{{775, 214, 989}, {786, 205, 991}, {894, 0, 894}, {894, 0, 894}, {896, 0, 896}, {779, 0, 779}, {779, 0, 779}},
			VCD:   "51ff17cdd7e5b730",
		},
	}
	for _, w := range []int{1, 2, 4, 8} {
		for _, fcs16 := range []bool{false, true} {
			name := fmt.Sprintf("w=%d/fcs16=%t", w, fcs16)
			got := runGoldenCorpus(t, w, fcs16)
			if got != want[name] {
				t.Errorf("%s:\n got %+v\nwant %+v", name, got, want[name])
			}
		}
	}
}

// pairCounts is the two-endpoint machine's cycle-level observables: the
// clock, both steered lines and every wire of both directions.
type pairCounts struct {
	Now                 int64
	WordsAB, ReturnedAB uint64
	WordsBA, ReturnedBA uint64
	GoodA, BadA         uint64
	GoodB, BadB         uint64
	StallsA, StallsB    uint64 // Escape Generate input stalls
	GenHighA, GenHighB  int
	DetHighA, DetHighB  int
	Wires               [14][3]uint64 // A.Tx, B.Rx, B.Tx, A.Rx in datapath order
}

// TestPairCountsGolden pins the cross-connected Pair the way
// TestSimulatedCountsGolden pins the loopback System: traffic both ways,
// A's CtrlLoopback set mid-frame (the frame in flight is cut on both
// receivers) and cleared mid-frame again. Values recorded on the commit
// before the kernel's schedule and the resync buffers were reworked.
func TestPairCountsGolden(t *testing.T) {
	p := NewPair(4)
	rng := rand.New(rand.NewSource(22))
	job := func(n int, density float64) TxJob {
		return TxJob{Protocol: ppp.ProtoIPv4, Payload: goldenPayload(rng, n, density)}
	}
	for i := 0; i < 4; i++ {
		p.A.Send(job(700, 0.02), job(40, 0), job(333, 0.5))
	}
	p.B.Send(job(1500, 0.02), job(9, 0.5), job(64, 0))
	// B's burst outlasts the first 100 cycles of the loopback window: both
	// steers then want A's receiver and B's, evaluated first, wins.
	for i := 0; i < 300; i++ {
		p.Cycle()
	}
	p.A.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable|CtrlLoopback)
	for i := 0; i < 600; i++ {
		p.Cycle()
	}
	p.A.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable)
	if !p.RunUntilIdle(1_000_000) {
		t.Fatal("pair did not drain")
	}
	p.A.Send(job(100, 0.02))
	p.B.Send(job(1, 0))
	if !p.RunUntilIdle(1_000_000) {
		t.Fatal("pair did not drain after the second burst")
	}

	got := pairCounts{
		Now:     p.Sim.Now(),
		WordsAB: p.lineAB.Words, ReturnedAB: p.lineAB.Returned,
		WordsBA: p.lineBA.Words, ReturnedBA: p.lineBA.Returned,
		GoodA: p.A.Rx.Control.Good, BadA: p.A.Rx.Control.Bad,
		GoodB: p.B.Rx.Control.Good, BadB: p.B.Rx.Control.Bad,
		StallsA: p.A.Tx.Escape.InputStalls, StallsB: p.B.Tx.Escape.InputStalls,
		GenHighA: p.A.Tx.Escape.HighWater(), GenHighB: p.B.Tx.Escape.HighWater(),
		DetHighA: p.A.Rx.Escape.HighWater(), DetHighB: p.B.Rx.Escape.HighWater(),
	}
	ab, ba := datapathWires(p.A.Tx, p.B.Rx), datapathWires(p.B.Tx, p.A.Rx)
	for i, wire := range append(ab[:], ba[:]...) {
		got.Wires[i] = [3]uint64{wire.Transfers, wire.Stalls, wire.Occupied}
	}
	want := pairCounts{
		Now: 1540, WordsAB: 1311, ReturnedAB: 451, WordsBA: 411, ReturnedBA: 0,
		GoodA: 6, BadA: 3, GoodB: 8, BadB: 1, StallsA: 382, StallsB: 8,
		GenHighA: 13, GenHighB: 9, DetHighA: 8, DetHighB: 8,
		Wires: [14][3]uint64{
			{1114, 391, 1505}, {1127, 381, 1509}, {1311, 113, 1424}, {860, 0, 860}, {857, 0, 857}, {740, 0, 740}, {740, 0, 740},
			{399, 10, 409}, {403, 8, 411}, {411, 0, 411}, {862, 0, 862}, {862, 0, 862}, {792, 0, 792}, {792, 0, 792},
		},
	}
	if got != want {
		t.Errorf("\n got %+v\nwant %+v", got, want)
	}
	if got.ReturnedAB == 0 || got.ReturnedAB == got.WordsAB || got.ReturnedBA != 0 {
		t.Errorf("corpus must loop some, not all, of A's words and none of B's: %+v", got)
	}
}
