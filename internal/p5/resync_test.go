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
// storage behind them is the room they were built with, not a window
// sliding through an ever-growing array, and that the occupancy it
// reaches is what it always was. The room is four times the rounded
// bufCap() in each of two byte lanes, where the halfword-tag buffer
// before it held at most 2 × bufCap() entries: the slack keeps slides
// rare at saturation.
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
			fifo           *resync
			bufCap, wantHW int
		}{
			{"delineator", &dl.fifo, dl.bufCap(), highWater[w][0]},
			{"escape-detect", &det.fifo, det.bufCap(), highWater[w][1]},
		} {
			if room := q.fifo.room(); room != resyncRoom(q.bufCap) || len(q.fifo.oct) != room+8 || len(q.fifo.flg) != room+8 {
				t.Errorf("w=%d %s: lanes of %d/%d octets (room %d) for bufCap %d, want room %d",
					w, q.name, len(q.fifo.oct), len(q.fifo.flg), room, q.bufCap, resyncRoom(q.bufCap))
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
// ordinary frames. Each capacity is reserved before the first clock, in
// place of the unit's own 8W or 4W. The buffer's room is four times the
// next power of two at or above it (each lane 8 entries longer, the
// word-load margin), stays a power of two when the markers force it to
// double, never holds more than the capacity in octets, and loses no
// boundary.
func TestResyncRingEdgeCases(t *testing.T) {
	octets := func(q *resync) (n int) {
		for _, f := range q.flg[q.head:q.tail] {
			if f&flagMark == 0 {
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
					var fifo *resync
					var busy func() bool
					if unit == "delineator" {
						dl := &delineator{In: src.Out, Out: out.in, W: w}
						sim.Add(src, dl, out)
						fifo, busy = &dl.fifo, dl.busy
					} else {
						det := &EscapeDetect{In: src.Out, Out: out.in, W: w}
						sim.Add(src, det, out)
						fifo, busy = &det.fifo, det.busy
					}
					fifo.reserve(bufCap) // the sweep's capacity, not the unit's own 8W or 4W
					storage := 4 << bits.Len(uint(bufCap-1))

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
						if c := fifo.room(); c&(c-1) != 0 || fifo.tail > c || len(fifo.flg) != c+8 {
							t.Fatalf("cycle %d: room of %d entries (%d-entry flag lane) holds [%d,%d)", sim.Now(), c, len(fifo.flg), fifo.head, fifo.tail)
						}
						if n := octets(fifo); n > bufCap {
							t.Fatalf("cycle %d: %d octets buffered, bufCap %d", sim.Now(), n, bufCap)
						}
					}

					feed(frames[:tiny])
					step()
					if fifo.room() != storage {
						t.Fatalf("room %d entries for bufCap %d, want %d", fifo.room(), bufCap, storage)
					}
					for i := 0; i < 4*tiny; i++ { // downstream shut: the markers pile up
						step()
					}
					// The delineator cannot refuse the line, so its markers pile up
					// without bound; escape detect stops taking words at bufCap and
					// overshoots by a marker or two at most.
					if unit == "delineator" && fifo.HighWater <= bufCap {
						t.Errorf("stalled run reached %d entries, want the markers to overfill bufCap %d", fifo.HighWater, bufCap)
					}
					grown := storage // doubled exactly as far as the markers forced it
					for grown < fifo.HighWater {
						grown = max(2*grown, 4)
					}
					if fifo.room() != grown {
						t.Errorf("room is %d entries after a high water of %d from %d, want %d", fifo.room(), fifo.HighWater, storage, grown)
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
// RunUntilIdle, ReceivedInto on a warmed system — at zero allocations:
// the framer streams from the job, the sorters' buffers hold their room
// and the receiver delivers into its double-buffered arena, with and
// without the telemetry probes.
func TestSystemSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	payloads := make([][]byte, 20)
	for i := range payloads {
		payloads[i] = goldenPayload(rng, 1500, 0.02)
	}
	for _, w := range []int{1, 2, 4, 8} {
		for _, instrumented := range []bool{false, true} {
			sys := NewSystem(w)
			if instrumented {
				sys.Instrument(telemetry.NewRegistry())
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
			op() // warm: queues, both arena halves and rings reach working size
			op()
			if got := testing.AllocsPerRun(5, op); got != 0 {
				t.Errorf("w=%d telemetry=%t: %.1f allocations per %d-frame op, want 0",
					w, instrumented, got, len(payloads))
			}
			if len(rx) != len(payloads) {
				t.Errorf("w=%d telemetry=%t: %d frames delivered", w, instrumented, len(rx))
			}
		}
	}
}

// TestReceivedOwnership pins the delivery contract: a drained frame
// stays intact while the receiver takes the next batch and through the
// next drain, and its arena is refilled after the second-following one.
func TestReceivedOwnership(t *testing.T) {
	for _, drain := range []struct {
		name string
		f    func(*System) []RxFrame
	}{
		{"Received", (*System).Received},
		{"ReceivedInto", func(s *System) []RxFrame { return s.ReceivedInto(nil) }},
	} {
		t.Run(drain.name, func(t *testing.T) {
			sys := NewSystem(4)
			batch := func(fill byte) []RxFrame {
				sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{fill}, 64)})
				if !sys.RunUntilIdle(100_000) {
					t.Fatal("system did not drain")
				}
				return drain.f(sys)
			}
			intact := func(f RxFrame, fill byte) bool {
				return f.Err == nil && bytes.Equal(f.Frame.Payload, bytes.Repeat([]byte{fill}, 64)) &&
					bytes.Equal(f.Body[4:68], f.Frame.Payload)
			}
			first := batch(0xA1)
			if len(first) != 1 || !intact(first[0], 0xA1) {
				t.Fatalf("first batch: %+v", first)
			}
			f := first[0]
			if second := batch(0xB2); len(second) != 1 || !intact(second[0], 0xB2) {
				t.Fatalf("second batch: %+v", second)
			}
			if !intact(f, 0xA1) {
				t.Fatal("a frame was overwritten by the next drain")
			}
			if third := batch(0xC3); len(third) != 1 || !intact(third[0], 0xC3) {
				t.Fatalf("third batch: %+v", third)
			}
			// The second-following drain handed the first frame's arena
			// back: the third batch was received into it.
			if intact(f, 0xA1) || !intact(f, 0xC3) {
				t.Fatalf("the first frame's arena was not reused after the second-following drain: % x", f.Body)
			}
		})
	}
}

// tag is one entry of sliceModel, a halfword: a frame octet in the low
// byte with its start-of-frame bit, or an end-of-frame marker.
type tag uint16

const (
	tagSOF   tag = 1 << (8 + iota) // octet: the first of its frame
	tagMark                        // end-of-frame marker (low byte unused)
	tagErr                         // on markers: frame damaged
	tagAbort                       // on markers: frame deliberately aborted
)

// sliceModel is the resynchronisation buffer at its plainest: a slice of
// tags, packed one entry at a time. FuzzResyncBuffer holds resync to it.
type sliceModel struct {
	q         []tag
	highWater int
}

func (m *sliceModel) add(t ...tag) {
	m.q = append(m.q, t...)
	m.highWater = max(m.highWater, len(m.q))
}

func (m *sliceModel) pack(w int) (f rtl.Flit, take int, ok bool) {
	var mark tag
	for _, t := range m.q {
		if t&tagMark != 0 {
			mark = t
			break
		}
		if take == w {
			break
		}
		f.Data |= uint64(byte(t)) << (8 * take)
		f.SOF = f.SOF || t&tagSOF != 0
		take++
	}
	f.N = take
	if mark != 0 {
		f.EOF, f.Err, f.Abort = true, mark&tagErr != 0, mark&tagAbort != 0
		take++
	}
	return f, take, len(m.q) > 0
}

// FuzzResyncBuffer drives resync and sliceModel with the same sequence
// of word pushes (1..8 lanes, start-of-frame or not), end-of-frame
// markers, packs at the datapath width and drops, and requires equal
// flits, spans, lengths and high waters — and the room to be exactly the
// starting room doubled as far as the high water forced it.
func FuzzResyncBuffer(f *testing.F) {
	f.Add([]byte{2, 16, 0x08, 0x11, 1, 2, 3, 4, 5, 6, 7, 8, 0x01, 0x02, 0x02})
	f.Add([]byte{3, 1, 0x10, 0x17, 0x7E, 0x7D, 0, 0xFF, 1, 2, 3, 4, 0x01, 0x03, 0x02, 0x02, 0x02})
	f.Add([]byte{1, 12, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x02, 0x03, 0x05})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		w := 1 << (ops[0] % 4)
		bufCap := 1 + int(ops[1]%40)
		var q resync
		var m sliceModel
		q.reserve(bufCap)
		next := func(i *int) byte {
			if *i >= len(ops) {
				return 0
			}
			*i++
			return ops[*i-1]
		}
		for i := 2; i < len(ops); {
			op := next(&i)
			switch op % 4 {
			case 0: // push a word
				n, sof := 1+int(op>>2%8), op&0x20 != 0
				var data uint64
				for k := 0; k < 8; k++ {
					data |= uint64(next(&i)) << (8 * k)
				}
				q.push(data, n, sof)
				for k := 0; k < n; k++ {
					t := tag(byte(data >> (8 * k)))
					if k == 0 && sof {
						t |= tagSOF
					}
					m.add(t)
				}
			case 1: // push a marker
				err, abort := op&0x04 != 0, op&0x08 != 0
				q.mark(err, abort)
				t := tagMark
				if err {
					t |= tagErr
				}
				if abort {
					t |= tagAbort
				}
				m.add(t)
			case 2: // pack a word and drop what it spans
				gf, gt, gok := q.pack(w)
				wf, wt, wok := m.pack(w)
				if gf != wf || gt != wt || gok != wok {
					t.Fatalf("pack(%d) = %+v, %d, %t; model %+v, %d, %t", w, gf, gt, gok, wf, wt, wok)
				}
				q.drop(gt)
				m.q = m.q[gt:]
			case 3: // drop some entries
				k := int(op>>2) % (len(m.q) + 1)
				q.drop(k)
				m.q = m.q[k:]
			}
			if q.count() != len(m.q) || q.HighWater != m.highWater {
				t.Fatalf("Len %d, HighWater %d; model %d, %d", q.count(), q.HighWater, len(m.q), m.highWater)
			}
			room := resyncRoom(bufCap)
			for room < m.highWater {
				room *= 2
			}
			if q.room() != room || len(q.flg) != room+8 || q.tail > room {
				t.Fatalf("lanes %d/%d octets, live [%d,%d); want room %d for bufCap %d, high water %d",
					len(q.oct), len(q.flg), q.head, q.tail, room, bufCap, m.highWater)
			}
		}
	})
}

// BenchmarkResyncBuffer is the buffer's per-word cost at W = 4: a 4-lane
// push and a pack that takes it, with a frame marker every 64 words.
func BenchmarkResyncBuffer(b *testing.B) {
	var q resync
	q.reserve(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(uint64(i)*0x0102030405060708, 4, i&63 == 0)
		if i&63 == 63 {
			q.mark(false, false)
		}
		_, take, _ := q.pack(4)
		q.drop(take)
	}
}
