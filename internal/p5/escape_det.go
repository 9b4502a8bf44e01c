package p5

import (
	"math/bits"

	"repro/internal/hdlc"
	"repro/internal/rtl"
)

// tag is one entry in a receive-side resynchronisation buffer: either a
// frame octet (low byte, with its start-of-frame bit) or an end-of-frame
// marker. Markers travel in-band so frame boundaries can never be lost
// or reordered, whatever the cycle-level interleaving.
type tag uint16

const (
	tagSOF   tag = 1 << (8 + iota) // octet entry: first octet of its frame
	tagMark                        // end-of-frame marker entry (low byte unused)
	tagErr                         // on markers: frame damaged
	tagAbort                       // on markers: frame deliberately aborted
)

// markTag is the end-of-frame marker entry.
func markTag(err, abort bool) tag {
	t := tagMark
	if err {
		t |= tagErr
	}
	if abort {
		t |= tagAbort
	}
	return t
}

// tagFIFO is the receive-side resynchronisation buffer: a ring the owning
// unit allocates at its bufCap() — the storage the hardware has, rounded
// up to a power of two so an index wraps with a mask. The units bound the
// octets they commit to it, but not the in-band end-of-frame markers, so
// a stalled run of tiny frames can still overfill it; the ring then
// doubles rather than drop a boundary.
type tagFIFO struct {
	buf       []tag // ring storage, a power of two long
	head, n   int
	HighWater int
}

// reserve allocates the ring.
func (q *tagFIFO) reserve(capacity int) {
	q.buf = make([]tag, 1<<bits.Len(uint(capacity-1)))
}

func (q *tagFIFO) Len() int { return q.n }

func (q *tagFIFO) grow() {
	grown := make([]tag, max(2*len(q.buf), 4))
	k := copy(grown, q.buf[q.head:])
	copy(grown[k:], q.buf[:q.head])
	q.buf, q.head = grown, 0
}

// extend makes room for k more entries behind the tail — one room check
// and one high-water update however many — and returns the tail's index.
func (q *tagFIFO) extend(k int) int {
	for q.n+k > len(q.buf) {
		q.grow()
	}
	tail := q.head + q.n
	q.n += k
	if q.n > q.HighWater {
		q.HighWater = q.n
	}
	return tail
}

// Push appends one entry.
func (q *tagFIFO) Push(t tag) {
	tail := q.extend(1)
	q.buf[tail&(len(q.buf)-1)] = t
}

// PushOctets appends the n low lanes of data as frame octets, the first
// tagged start-of-frame if sof.
func (q *tagFIFO) PushOctets(data uint64, n int, sof bool) {
	tail := q.extend(n)
	mask := len(q.buf) - 1
	for i := 0; i < n; i, data = i+1, data>>8 {
		q.buf[(tail+i)&mask] = tag(byte(data))
	}
	if sof {
		q.buf[tail&mask] |= tagSOF
	}
}

// Drop removes the n oldest entries.
func (q *tagFIFO) Drop(n int) {
	q.head = (q.head + n) & (len(q.buf) - 1)
	q.n -= n
}

// lanesEqual returns a bitmask of the byte lanes of data (lane i is bits
// 8i..8i+7) equal to v — every lane of the word compared at once, as the
// hardware's stage-A comparators do.
func lanesEqual(data uint64, v byte) uint8 {
	const lsb, low7 = 0x0101010101010101, 0x7F7F7F7F7F7F7F7F
	x := data ^ lsb*uint64(v)
	zero := ^((x&low7 + low7) | x | low7) // bit 8i+7 set iff lane i matched
	return uint8((zero >> 7) * 0x0102040810204080 >> 56)
}

// validLanes is the lane bitmask of an n-octet word.
func validLanes(n int) uint8 { return uint8(uint(1)<<uint(n) - 1) }

// EscapeDetect is the Escape Detect unit of the P5 receiver: it removes
// octet stuffing from the delineated frame-content stream. On the W-octet
// datapath a removed escape leaves a bubble in the word (paper Figure 6);
// the four-stage sorter collapses bubbles through the resynchronisation
// buffer and re-emits dense W-octet words.
//
//	stage A  detect — find escape octets in every lane;
//	stage B  remove — delete escapes, XOR the following octet with 0x20
//	                  (the escape may straddle a word boundary);
//	stage C  merge  — pour surviving octets into the buffer;
//	stage D  output — re-align into dense words, never mixing frames.
//
// For W == 1 the unit degenerates to the classic 8-bit design: deleting
// an escape simply produces no output for one clock.
type EscapeDetect struct {
	In  *rtl.Wire // stuffed frame content (SOF/EOF marked, no flags)
	Out *rtl.Wire // destuffed frame content, dense words

	// W is the datapath width in octets.
	W int
	// BufCap is the resynchronisation buffer capacity in octets; the
	// zero value selects 4W.
	BufCap int

	st      [2]detStage // stage A's register is st[a], stage B's the other
	a       int
	fifo    tagFIFO
	limit   int  // bufCap(), latched with the storage on the first clock
	pending int  // octets taken and not yet merged (removal only shrinks it)
	esc     bool // escape pending across a word boundary
	sofPend bool // tag next surviving octet as frame start

	// Counters surfaced through the OAM.
	Removed     uint64 // escape octets removed
	Frames      uint64 // frames completed
	InputStalls uint64
}

type detStage struct {
	valid bool
	flit  rtl.Flit
	mask  uint8  // stage A: lanes holding escape octets
	out   uint64 // stage B: the surviving octets, packed from lane 0
	outN  int
}

func (d *EscapeDetect) bufCap() int {
	if d.BufCap == 0 {
		return 4 * d.W
	}
	return d.BufCap
}

// Occupancy returns the current buffer fill.
func (d *EscapeDetect) Occupancy() int { return d.fifo.Len() }

// HighWater returns the maximum buffer occupancy observed.
func (d *EscapeDetect) HighWater() int { return d.fifo.HighWater }

// Busy reports whether any octet is still inside the unit.
func (d *EscapeDetect) Busy() bool {
	return d.st[0].valid || d.st[1].valid || d.fifo.Len() > 0
}

// Eval implements rtl.Module.
func (d *EscapeDetect) Eval() {
	if d.limit == 0 {
		d.limit = d.bufCap()
		d.fifo.reserve(d.limit)
	}
	d.evalOutput() // stage D
	if d.W == 1 {
		var st detStage
		if d.take(&st) {
			d.remove(&st)
			d.merge(&st)
		}
		return
	}
	stA, stB := &d.st[d.a], &d.st[d.a^1]
	if stB.valid { // stage C
		d.merge(stB)
		stB.valid = false
	}
	if stA.valid { // stage B, by swap: C has just drained B's register
		d.remove(stA)
		d.a ^= 1
	}
	d.take(&d.st[d.a]) // stage A
}

// take is stage A: accept one word into st (an invalid stage register)
// if the buffer can absorb it on top of everything already committed.
func (d *EscapeDetect) take(st *detStage) bool {
	f, ok := d.In.Peek()
	if !ok {
		return false
	}
	if d.fifo.Len()+d.pending+f.N > d.limit {
		d.InputStalls++
		return false
	}
	d.In.Take()
	d.pending += f.N
	st.valid, st.flit = true, f
	st.mask = lanesEqual(f.Data, hdlc.Escape) & validLanes(f.N)
	return true
}

// remove is stage B: delete escapes and restore the escaped octets. The
// escape-pending state carries across word boundaries.
func (d *EscapeDetect) remove(st *detStage) {
	if st.mask == 0 && !d.esc {
		st.out, st.outN = st.flit.Data, st.flit.N // nothing to delete
	} else {
		st.out, st.outN = 0, 0
		data := st.flit.Data
		for i := 0; i < st.flit.N; i, data = i+1, data>>8 {
			b := byte(data)
			switch {
			case d.esc:
				b ^= hdlc.XorBit
				d.esc = false
			case st.mask>>uint(i)&1 != 0:
				d.esc = true
				d.Removed++
				continue
			}
			st.out |= uint64(b) << (8 * uint(st.outN))
			st.outN++
		}
	}
	if st.flit.EOF {
		d.esc = false // a dangling escape at end of frame is malformed
	}
}

// merge is stage C: pour surviving octets (and the in-band end-of-frame
// marker) into the buffer. A frame start whose word kept no octet tags
// the next one that survives.
func (d *EscapeDetect) merge(st *detStage) {
	d.pending -= st.flit.N
	if st.flit.SOF {
		d.sofPend = true
	}
	if st.outN > 0 {
		d.fifo.PushOctets(st.out, st.outN, d.sofPend)
		d.sofPend = false
	}
	if st.flit.EOF {
		d.fifo.Push(markTag(st.flit.Err, st.flit.Abort))
		d.sofPend = false
		d.Frames++
	}
}

// evalOutput is stage D: emit dense words, cutting at frame boundaries.
func (d *EscapeDetect) evalOutput() {
	f, take, ok := packWord(&d.fifo, d.W)
	if !ok {
		return
	}
	if !f.EOF && f.N < d.W {
		// Partial word and no frame end in sight: emit only if the
		// pipeline behind is empty (the stream has paused).
		if d.st[0].valid || d.st[1].valid {
			return
		}
		if _, more := d.In.Peek(); more {
			return
		}
	}
	if !d.Out.CanPush() {
		return
	}
	d.fifo.Drop(take)
	d.Out.Push(f)
}

// packWord assembles up to w data octets from the front of q into a
// flit, stopping at (and consuming) an end-of-frame marker. It returns
// the flit, the number of entries it spans, and whether anything is
// available.
func packWord(q *tagFIFO, w int) (f rtl.Flit, take int, ok bool) {
	n := min(q.n, w+1) // at most a full word and the marker behind it
	mask := len(q.buf) - 1
	var data uint64
	var flags, mark tag
	for take < n {
		t := q.buf[(q.head+take)&mask]
		if t&tagMark != 0 {
			// The marker ends the word — also when it immediately
			// follows a full one, so full-word frame tails still carry
			// their EOF.
			mark = t
			break
		}
		if take == w {
			break
		}
		data |= uint64(byte(t)) << (8 * uint(take))
		flags |= t
		take++
	}
	f = rtl.Flit{Data: data, N: take, Marks: rtl.Marks{SOF: flags&tagSOF != 0,
		EOF: mark != 0, Err: mark&tagErr != 0, Abort: mark&tagAbort != 0}}
	if mark != 0 {
		take++
	}
	return f, take, n > 0
}
