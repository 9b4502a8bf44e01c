package p5

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/hdlc"
	"repro/internal/rtl"
)

// EscapeGen is the Escape Generate unit: it byte-stuffs the frame-body
// stream and delimits frames with flags, producing the raw line byte
// stream in W-octet words.
//
// For W > 1 it is the paper's four-stage pipelined byte sorter:
//
//	stage A  detect — compare every lane against 0x7E/0x7D (and the
//	                  programmable ACCM);
//	stage B  expand — rewrite the word into up to 2W octets, inserting
//	                  0x7D and XORing flagged lanes with 0x20;
//	stage C  merge  — pour the expanded octets, plus frame-delimiting
//	                  flags, into the resynchronisation buffer;
//	stage D  output — drain the buffer W octets per clock.
//
// The resynchronisation buffer is deliberately small; when the octets
// already committed to it could exceed its capacity, the unit refuses to
// take input — the backpressure scheme the paper introduces to keep
// on-chip memory low. For W == 1 (the 8-bit P5) detect/expand/merge
// collapse into a single cycle and an escape simply holds the input for
// one extra clock, the classic 8-bit design the paper contrasts against.
type EscapeGen struct {
	In  *rtl.Wire // frame body flits (SOF/EOF marked, FCS included)
	Out *rtl.Wire // raw line words

	// W is the datapath width in octets: 1 and 4 are the paper's 8-
	// and 32-bit systems; 2 and 8 (16-/64-bit) are supported for the
	// scaling study.
	W int
	// ACCM is the programmable escape map (an OAM register).
	ACCM hdlc.ACCM
	// SharedFlags emits a single flag between back-to-back frames.
	SharedFlags bool
	// IdleFill, when set, transmits all-flag idle words whenever the
	// unit would otherwise emit nothing — the continuous line fill of
	// a real POS interface.
	IdleFill bool

	st       [2]genStage // stage A's register is st[a], stage B's the other
	a        int
	fifo     resync
	pending  int // octets taken and not yet merged
	inFrame  bool
	lastFlag bool // previous octet merged was a closing flag

	// Counters surfaced through the OAM.
	Escaped     uint64 // octets escaped
	InputStalls uint64 // cycles input was refused by backpressure
	IdleWords   uint64 // idle fill words emitted
}

// genStage is one internal pipeline register of the sorter.
type genStage struct {
	valid  bool
	flit   rtl.Flit
	mask   uint8    // stage A: lanes needing escape
	commit int      // stage A: octets this word will pour into the buffer
	exp    [16]byte // stage B: expanded octets (≤ 2W for W ≤ 8)
	expN   int
}

// bufCap is the resynchronisation buffer capacity in octets: four
// words. A single worst-case word commits 2W stuffed octets plus two
// delimiting flags, and 4W ≥ 2W+2 for every W ≥ 1, so the buffer always
// takes it and the unit cannot deadlock.
func (g *EscapeGen) bufCap() int { return 4 * g.W }

// Occupancy returns the current resynchronisation-buffer fill.
func (g *EscapeGen) Occupancy() int { return g.fifo.count() }

// HighWater returns the maximum buffer occupancy observed.
func (g *EscapeGen) HighWater() int { return g.fifo.HighWater }

// Busy reports whether any octet is still inside the unit.
func (g *EscapeGen) Busy() bool {
	return g.st[0].valid || g.st[1].valid || g.fifo.count() > 0
}

// Eval implements rtl.Module. Stages run downstream-first, so a word
// advances exactly one stage per clock.
func (g *EscapeGen) Eval() {
	if g.fifo.limit == 0 {
		g.fifo.reserve(g.bufCap())
	}
	g.evalOutput() // stage D
	if g.W == 1 {
		// 8-bit datapath: detect, expand and merge in one cycle.
		var st genStage
		if g.take(&st) {
			g.expand(&st)
			g.merge(&st)
		}
		return
	}
	stA, stB := &g.st[g.a], &g.st[g.a^1]
	// Stage C: merge the word expanded last cycle.
	if stB.valid {
		g.merge(stB)
		stB.valid = false
	}
	// Stage B: expand the word detected last cycle. It moves by swap:
	// stage C has just drained B's register, which becomes A's.
	if stA.valid {
		g.expand(stA)
		g.a ^= 1
	}
	// Stage A: detect.
	g.take(&g.st[g.a])
}

// take is stage A: accept one word from upstream into st (an invalid
// stage register) if the buffer can absorb everything already committed
// plus this word — exactly, since the escape mask is known: its lanes,
// one more per escaped lane, and the delimiting flags.
func (g *EscapeGen) take(st *genStage) bool {
	f, ok := g.In.Peek()
	if !ok {
		return false
	}
	mask := lanesEqual(f.Data, hdlc.Flag) | lanesEqual(f.Data, hdlc.Escape)
	if g.ACCM != 0 { // mapped control characters too, lane by lane
		for i := 0; i < f.N; i++ {
			if g.ACCM.Escaped(f.Byte(i)) {
				mask |= 1 << uint(i)
			}
		}
	}
	mask &= validLanes(f.N)
	commit := f.N + bits.OnesCount8(mask)
	if f.SOF {
		commit++
	}
	if f.EOF {
		commit++ // closing flag or half the abort pair
	}
	if f.Err || f.Abort {
		commit++ // abort is two octets
	}
	if g.fifo.count()+g.pending+commit > g.fifo.limit {
		g.InputStalls++
		return false
	}
	g.In.Take()
	g.pending += commit
	st.valid, st.flit, st.mask, st.commit = true, f, mask, commit
	return true
}

// expand is stage B: apply the escape rewriting.
func (g *EscapeGen) expand(st *genStage) {
	if st.mask == 0 {
		binary.LittleEndian.PutUint64(st.exp[:8], st.flit.Data)
		st.expN = st.flit.N
		return
	}
	n := 0
	for i := 0; i < st.flit.N; i++ {
		b := st.flit.Byte(i)
		if st.mask&(1<<uint(i)) != 0 {
			st.exp[n] = hdlc.Escape
			st.exp[n+1] = b ^ hdlc.XorBit
			n += 2
			g.Escaped++
		} else {
			st.exp[n] = b
			n++
		}
	}
	st.expN = n
}

// merge is stage C: pour the expanded octets and any frame-delimiting
// flags into the resynchronisation buffer, a word at a time.
func (g *EscapeGen) merge(st *genStage) {
	g.pending -= st.commit
	if st.flit.SOF {
		if !(g.SharedFlags && g.lastFlag) {
			g.fifo.push(hdlc.Flag, 1, false)
		}
		g.inFrame = true
		g.lastFlag = false
	}
	if n := st.expN; n > 0 {
		g.fifo.push(binary.LittleEndian.Uint64(st.exp[:8]), min(n, 8), false)
		if n > 8 {
			g.fifo.push(binary.LittleEndian.Uint64(st.exp[8:]), n-8, false)
		}
		g.lastFlag = false
	}
	if st.flit.EOF {
		closing, n := uint64(hdlc.Flag), 1
		if st.flit.Err || st.flit.Abort { // deliberate abort: escape, then flag
			closing, n = closing<<8|hdlc.Escape, 2
		}
		g.fifo.push(closing, n, false)
		g.inFrame = false
		g.lastFlag = true
	}
}

// flagFill is a word of inter-frame fill flags.
const flagFill = lanesOf * hdlc.Flag

// evalOutput is stage D: drain the buffer onto the line.
func (g *EscapeGen) evalOutput() {
	n := g.fifo.count()
	var data uint64
	switch {
	case n >= g.W:
		data = g.fifo.word(g.W)
		n = g.W
	case n > 0 && !g.inFrame && !g.st[0].valid && !g.st[1].valid:
		// Frame tail shorter than a word and nothing behind it: pad
		// with inter-frame fill flags to keep the line word-aligned.
		data = g.fifo.word(n) | flagFill&laneMask(g.W)&^laneMask(n)
	case n == 0 && g.IdleFill && !g.st[0].valid && !g.st[1].valid:
		data = flagFill & laneMask(g.W)
	default:
		return
	}
	if !g.Out.CanPush() {
		return
	}
	if n == 0 {
		g.IdleWords++
	}
	g.fifo.drop(n)
	g.Out.Push(rtl.Flit{Data: data, N: g.W})
}
