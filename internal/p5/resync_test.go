package p5

import (
	"math/rand"
	"testing"

	"repro/internal/ppp"
)

// TestResyncBuffersStayBounded runs the line saturated for 3000 MTU
// frames — the receive FIFOs never quite drain — and checks that the
// storage behind them is what the hardware has, not a window sliding
// through an ever-growing array, and that the occupancy it reaches is
// what it always was.
func TestResyncBuffersStayBounded(t *testing.T) {
	highWater := map[int][2]int{1: {1, 1}, 4: {11, 7}} // width → Delineator, Escape Detect
	for _, w := range []int{1, 4} {
		sys := NewSystem(w)
		rng := rand.New(rand.NewSource(3000))
		for i := 0; i < 3000; i++ {
			sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: goldenPayload(rng, 1500, 0.02)})
		}
		if !sys.RunUntilIdle(20_000_000) {
			t.Fatalf("w=%d: did not drain", w)
		}
		if got := sys.Rx.Control.Good; got != 3000 {
			t.Fatalf("w=%d: %d good frames, want 3000", w, got)
		}
		dl, det := sys.Rx.Delineator, sys.Rx.Escape
		for _, q := range []struct {
			name           string
			fifo           *tagFIFO
			bufCap, wantHW int
		}{
			{"delineator", &dl.fifo, dl.bufCap(), highWater[w][0]},
			{"escape-detect", &det.fifo, det.bufCap(), highWater[w][1]},
		} {
			if c := cap(q.fifo.buf); c > 2*q.bufCap {
				t.Errorf("w=%d %s: buffer capacity %d entries for bufCap %d", w, q.name, c, q.bufCap)
			}
			if q.fifo.HighWater != q.wantHW {
				t.Errorf("w=%d %s: high water %d, want %d", w, q.name, q.fifo.HighWater, q.wantHW)
			}
		}
	}
}
