package p5

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/rtl"
	"repro/internal/telemetry"
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

// valve is a consumer that can be shut: closed, the wire in front of it
// fills and the unit under test sees a stalled downstream.
type valve struct {
	in    *rtl.Wire
	open  bool
	flits []rtl.Flit
}

func (v *valve) Eval() {
	if !v.open {
		return
	}
	if f, ok := v.in.Take(); ok {
		v.flits = append(v.flits, f)
	}
}

// TestResyncRingEdgeCases drives each resynchronisation buffer at small
// and awkward capacities: a stalled run of 1-octet frames, whose in-band
// end-of-frame markers are the one thing the units do not bound, then
// ordinary frames. The ring's storage is the next power of two at or
// above bufCap(), stays a power of two when the markers force it to
// double, never holds more than bufCap() octets, and loses no boundary.
func TestResyncRingEdgeCases(t *testing.T) {
	octets := func(q *tagFIFO) (n int) {
		for i := 0; i < q.n; i++ {
			if q.buf[(q.head+i)&(len(q.buf)-1)]&tagMark == 0 {
				n++
			}
		}
		return n
	}
	for _, w := range []int{1, 4, 8} {
		for _, bufCap := range []int{w, 12, 16, 33} { // w: one word, the least that moves
			if bufCap < w {
				continue
			}
			for _, unit := range []string{"delineator", "escape-detect"} {
				t.Run(fmt.Sprintf("%s/w=%d/cap=%d", unit, w, bufCap), func(t *testing.T) {
					sim := &rtl.Sim{}
					src := &rtl.Source{Out: sim.Wire("in")}
					out := &valve{in: sim.Wire("out")}
					var fifo *tagFIFO
					var limit func() int
					var busy func() bool
					if unit == "delineator" {
						dl := &Delineator{In: src.Out, Out: out.in, W: w, BufCap: bufCap}
						sim.Add(src, dl, out)
						fifo, limit, busy = &dl.fifo, dl.bufCap, dl.Busy
					} else {
						det := &EscapeDetect{In: src.Out, Out: out.in, W: w, BufCap: bufCap}
						sim.Add(src, det, out)
						fifo, limit, busy = &det.fifo, det.bufCap, det.Busy
					}
					storage := 1 << bits.Len(uint(bufCap-1))

					// The corpus: a run of 1-octet frames, then ordinary ones.
					rng := rand.New(rand.NewSource(int64(100*w + bufCap)))
					var frames [][]byte
					for i := 0; i < 3*bufCap+8; i++ {
						frames = append(frames, []byte{byte(1 + i%100)})
					}
					for i := 0; i < 20; i++ {
						frames = append(frames, goldenPayload(rng, 1+rng.Intn(40), 0))
					}
					tiny := 3*bufCap + 8
					feed := func(fs [][]byte) {
						if unit == "delineator" {
							line := []byte{hdlc.Flag}
							for _, f := range fs {
								line = append(append(line, f...), hdlc.Flag)
							}
							src.FeedBytes(line, w)
							return
						}
						for _, f := range fs {
							src.FeedBytes(f, w)
						}
					}
					step := func() {
						sim.Cycle()
						if c := len(fifo.buf); c&(c-1) != 0 || fifo.n > c {
							t.Fatalf("cycle %d: ring of %d entries holds %d", sim.Now(), c, fifo.n)
						}
						if n := octets(fifo); n > limit() {
							t.Fatalf("cycle %d: %d octets buffered, bufCap %d", sim.Now(), n, limit())
						}
					}

					feed(frames[:tiny])
					step()
					if len(fifo.buf) != storage {
						t.Fatalf("storage %d entries for bufCap %d, want %d", len(fifo.buf), bufCap, storage)
					}
					for i := 0; i < 4*tiny; i++ { // downstream shut: the markers pile up
						step()
					}
					// The delineator cannot refuse the line, so its markers pile up
					// without bound; escape detect stops taking words at bufCap and
					// overshoots by a marker or two at most.
					if unit == "delineator" && fifo.HighWater <= limit() {
						t.Errorf("stalled run reached %d entries, want the markers to overfill bufCap %d", fifo.HighWater, limit())
					}
					grown := storage // doubled exactly as far as the markers forced it
					for grown < fifo.HighWater {
						grown = max(2*grown, 4)
					}
					if len(fifo.buf) != grown {
						t.Errorf("ring is %d entries after a high water of %d from %d, want %d", len(fifo.buf), fifo.HighWater, storage, grown)
					}
					drain := func(what string) {
						for i := 0; src.Pending() > 0 || busy() || !sim.Drained(); i++ {
							if i > 100000 {
								t.Fatalf("%s did not drain", what)
							}
							step()
						}
					}
					out.open = true
					drain("tiny frames")
					feed(frames[tiny:])
					drain("ordinary frames")

					got := framesOf(out.flits)
					var damaged []bool
					for _, f := range out.flits {
						if f.EOF {
							damaged = append(damaged, f.Err)
						}
					}
					if len(got) != len(frames) {
						t.Fatalf("%d frame boundaries out, %d in", len(got), len(frames))
					}
					intact := 0
					for i := range frames {
						// Overrun octets are dropped from the delineator's buffer,
						// never boundaries, and the frame carries the mark. Escape
						// detect refuses input instead and never drops.
						if damaged[i] && unit == "delineator" {
							continue
						}
						if damaged[i] || !bytes.Equal(got[i], frames[i]) {
							t.Fatalf("frame %d (damaged=%t): got % x, want % x", i, damaged[i], got[i], frames[i])
						}
						intact++
					}
					if intact == 0 {
						t.Error("no frame came through intact")
					}
				})
			}
		}
	}
}

// TestSystemSteadyAllocs pins the ladder's own op — 20 × Send,
// RunUntilIdle, ReceivedInto on a warmed system — at the delivery
// contract's two allocations per frame (an owned body and a decoded
// header), with and without the telemetry probes.
func TestSystemSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	payloads := make([][]byte, 20)
	for i := range payloads {
		payloads[i] = goldenPayload(rng, 1500, 0.02)
	}
	for _, w := range []int{1, 4} {
		for _, instrumented := range []bool{false, true} {
			sys := NewSystem(w)
			if instrumented {
				sys.Instrument(telemetry.NewRegistry(), "p5")
			}
			var rx []RxFrame
			op := func() {
				for _, d := range payloads {
					sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
				}
				if !sys.RunUntilIdle(10_000_000) {
					t.Fatal("system did not drain")
				}
				rx = sys.ReceivedInto(rx[:0])
			}
			op() // warm: queues, body buffers and rings reach working size
			if got := testing.AllocsPerRun(5, op); got != 2*float64(len(payloads)) {
				t.Errorf("w=%d telemetry=%t: %.1f allocations per %d-frame op, want %d",
					w, instrumented, got, len(payloads), 2*len(payloads))
			}
			if len(rx) != len(payloads) {
				t.Errorf("w=%d telemetry=%t: %d frames delivered", w, instrumented, len(rx))
			}
		}
	}
}
