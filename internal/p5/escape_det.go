package p5

import (
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

// octetTag is the entry for frame octet b.
func octetTag(b byte, sof bool) tag {
	if sof {
		return tag(b) | tagSOF
	}
	return tag(b)
}

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
// unit allocates at its bufCap() — the storage the hardware has. The
// units bound the octets they commit to it, but not the in-band
// end-of-frame markers, so a stalled run of tiny frames can still
// overfill it; the ring then doubles rather than drop a boundary.
type tagFIFO struct {
	buf       []tag // ring storage
	head, n   int
	HighWater int
}

// reserve allocates the ring on first use.
func (q *tagFIFO) reserve(capacity int) {
	if q.buf == nil {
		q.buf = make([]tag, capacity)
	}
}

func (q *tagFIFO) Len() int { return q.n }

func (q *tagFIFO) grow() {
	grown := make([]tag, max(2*len(q.buf), 4))
	k := copy(grown, q.buf[q.head:])
	copy(grown[k:], q.buf[:q.head])
	q.buf, q.head = grown, 0
}

func (q *tagFIFO) Push(t tag) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = t
	q.n++
	if q.n > q.HighWater {
		q.HighWater = q.n
	}
}

func (q *tagFIFO) Peek(i int) tag {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return q.buf[i]
}

// Drop removes the n oldest entries.
func (q *tagFIFO) Drop(n int) {
	q.head += n
	if q.head >= len(q.buf) {
		q.head -= len(q.buf)
	}
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

	stA, stB detStage
	fifo     tagFIFO
	esc      bool // escape pending across a word boundary
	sofPend  bool // tag next surviving octet as frame start

	// Counters surfaced through the OAM.
	Removed     uint64 // escape octets removed
	Frames      uint64 // frames completed
	InputStalls uint64
}

type detStage struct {
	valid    bool
	flit     rtl.Flit
	mask     uint8 // lanes holding escape octets
	out      [8]tag
	outN     int
	sof, eof bool
	err      bool
	abort    bool
}

func (s *detStage) committed() int {
	if !s.valid {
		return 0
	}
	return s.flit.N // upper bound; removal only shrinks it
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
	return d.stA.valid || d.stB.valid || d.fifo.Len() > 0
}

// Eval implements rtl.Module.
func (d *EscapeDetect) Eval() {
	d.fifo.reserve(d.bufCap())
	d.evalOutput() // stage D
	if d.W == 1 {
		var st detStage
		if d.take(&st) {
			d.remove(&st)
			d.merge(&st)
		}
		return
	}
	if d.stB.valid { // stage C
		d.merge(&d.stB)
		d.stB.valid = false
	}
	if d.stA.valid && !d.stB.valid { // stage B
		d.stB = d.stA
		d.remove(&d.stB)
		d.stA.valid = false
	}
	if !d.stA.valid { // stage A
		d.take(&d.stA)
	}
}

// take is stage A: accept one word into st if the buffer can absorb it
// on top of everything already committed.
func (d *EscapeDetect) take(st *detStage) bool {
	f, ok := d.In.Peek()
	if !ok {
		return false
	}
	if d.fifo.Len()+d.stA.committed()+d.stB.committed()+f.N > d.bufCap() {
		d.InputStalls++
		return false
	}
	d.In.Take()
	st.valid, st.flit, st.outN = true, f, 0
	st.sof, st.eof, st.err, st.abort = f.SOF, f.EOF, f.Err, f.Abort
	st.mask = lanesEqual(f.Data, hdlc.Escape) & validLanes(f.N)
	return true
}

// remove is stage B: delete escapes and restore the escaped octets. The
// escape-pending state carries across word boundaries.
func (d *EscapeDetect) remove(st *detStage) {
	n := 0
	sofPend := st.sof
	data := st.flit.Data
	for i := 0; i < st.flit.N; i, data = i+1, data>>8 {
		b := byte(data)
		if d.esc {
			st.out[n] = octetTag(b^hdlc.XorBit, sofPend)
			sofPend = false
			n++
			d.esc = false
			continue
		}
		if st.mask>>uint(i)&1 != 0 {
			d.esc = true
			d.Removed++
			continue
		}
		st.out[n] = octetTag(b, sofPend)
		sofPend = false
		n++
	}
	if st.eof {
		d.esc = false // a dangling escape at end of frame is malformed
	}
	st.outN = n
	// Frame start that survived no octets this word: defer the tag.
	st.sof = sofPend
}

// merge is stage C: pour surviving octets (and the in-band end-of-frame
// marker) into the buffer.
func (d *EscapeDetect) merge(st *detStage) {
	if st.sof {
		d.sofPend = true
	}
	for i := 0; i < st.outN; i++ {
		t := st.out[i]
		if d.sofPend {
			t |= tagSOF
			d.sofPend = false
		}
		d.fifo.Push(t)
	}
	if st.eof {
		d.fifo.Push(markTag(st.err, st.abort))
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
		if d.stA.valid || d.stB.valid {
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
func packWord(q *tagFIFO, w int) (rtl.Flit, int, bool) {
	n := q.Len()
	if n == 0 {
		return rtl.Flit{}, 0, false
	}
	var f rtl.Flit
	take := 0
	for take < n {
		t := q.Peek(take)
		if t&tagMark != 0 {
			// The marker ends the word — also when it immediately
			// follows a full one, so full-word frame tails still carry
			// their EOF.
			f.EOF, f.Err, f.Abort = true, t&tagErr != 0, t&tagAbort != 0
			take++
			break
		}
		if f.N == w {
			break
		}
		f.Data |= uint64(byte(t)) << (8 * uint(f.N))
		if t&tagSOF != 0 {
			f.SOF = true
		}
		f.N++
		take++
	}
	return f, take, true
}

// Tick implements rtl.Module.
func (d *EscapeDetect) Tick() {}
