package p5

import (
	"repro/internal/hdlc"
	"repro/internal/rtl"
)

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

	st      [2]detStage // stage A's register is st[a], stage B's the other
	a       int
	fifo    resync
	pending int  // octets taken and not yet merged (removal only shrinks it)
	esc     bool // escape pending across a word boundary
	sofPend bool // tag next surviving octet as frame start

	// Counters surfaced through the OAM.
	Removed     uint64 // escape octets removed
	InputStalls uint64
}

type detStage struct {
	valid bool
	flit  rtl.Flit
	mask  uint8  // stage A: lanes holding escape octets
	out   uint64 // stage B: the surviving octets, packed from lane 0
	outN  int
}

// bufCap is the resynchronisation buffer capacity in octets: four
// words.
func (d *EscapeDetect) bufCap() int { return 4 * d.W }

// Occupancy returns the current buffer fill.
func (d *EscapeDetect) Occupancy() int { return d.fifo.count() }

// HighWater returns the maximum buffer occupancy observed.
func (d *EscapeDetect) HighWater() int { return d.fifo.HighWater }

// busy reports whether any octet is still inside the unit.
func (d *EscapeDetect) busy() bool {
	return d.st[0].valid || d.st[1].valid || d.fifo.count() > 0
}

// Eval implements rtl.Module.
func (d *EscapeDetect) Eval() {
	if d.fifo.limit == 0 {
		d.fifo.reserve(d.bufCap())
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
	if d.fifo.count()+d.pending+f.N > d.fifo.limit {
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
		d.fifo.push(st.out, st.outN, d.sofPend)
		d.sofPend = false
	}
	if st.flit.EOF {
		d.fifo.mark(st.flit.Err, st.flit.Abort)
		d.sofPend = false
	}
}

// evalOutput is stage D: emit dense words, cutting at frame boundaries.
func (d *EscapeDetect) evalOutput() {
	f, take, ok := d.fifo.pack(d.W)
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
	d.fifo.drop(take)
	d.Out.Push(f)
}
