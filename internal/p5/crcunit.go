package p5

import (
	"sync"

	"repro/internal/crc"
	"repro/internal/rtl"
)

// engines holds the parallel matrix CRC engines for every lane count a
// datapath can present (1..8 octets per clock). An engine is immutable
// once built, so every CRC unit in the process shares one set; each is
// built on first use.
var engines [9]struct {
	once32, once16 sync.Once
	e32            *crc.Parallel32
	e16            *crc.Parallel16
}

func engine32(lanes int) *crc.Parallel32 {
	e := &engines[lanes]
	e.once32.Do(func() { e.e32 = crc.NewParallel32(8 * lanes) })
	return e.e32
}

func engine16(lanes int) *crc.Parallel16 {
	e := &engines[lanes]
	e.once16.Do(func() { e.e16 = crc.NewParallel16(8 * lanes) })
	return e.e16
}

// fcsCore is one CRC unit's register plus the engines of the programmed
// FCS size for every lane count its datapath can present. This is the
// paper's "highly efficient and optimised parallel CRC core": the 8-bit
// P5 uses the 8×32 matrix, the 32-bit P5 the 32×32 matrix, and the
// partial final word of a frame uses the narrower matrices. A mode
// change builds a new core.
type fcsCore struct {
	mode crc.Size
	e32  []*crc.Parallel32 // e32[n] consumes n octets per step
	e16  []*crc.Parallel16
	st32 uint32
	st16 uint16
}

func newFCSCore(w int, mode crc.Size) *fcsCore {
	if mode == 0 {
		mode = crc.FCS32Mode
	}
	c := &fcsCore{mode: mode}
	if mode == crc.FCS16Mode {
		c.e16 = make([]*crc.Parallel16, w+1)
		for n := 1; n <= w; n++ {
			c.e16[n] = engine16(n)
		}
	} else {
		c.e32 = make([]*crc.Parallel32, w+1)
		for n := 1; n <= w; n++ {
			c.e32[n] = engine32(n)
		}
	}
	c.reset()
	return c
}

func (c *fcsCore) reset() {
	c.st32 = crc.Init32
	c.st16 = crc.Init16
}

// step consumes one flit's octets in a single (simulated) clock.
func (c *fcsCore) step(f rtl.Flit) {
	if f.N == 0 {
		return
	}
	if c.mode == crc.FCS16Mode {
		c.st16 = c.e16[f.N].Step(c.st16, f.Data)
	} else {
		c.st32 = c.e32[f.N].Step(c.st32, f.Data)
	}
}

// fcsWord returns the complemented FCS field as a word, LSB first in the
// low lane, and its length in octets.
func (c *fcsCore) fcsWord() (uint64, int) {
	if c.mode == crc.FCS16Mode {
		return uint64(c.st16 ^ 0xFFFF), 2
	}
	return uint64(c.st32 ^ 0xFFFFFFFF), 4
}

// good reports whether the register sits on the magic residue (receiver
// side, after the FCS octets themselves have been folded in).
func (c *fcsCore) good() bool {
	if c.mode == crc.FCS16Mode {
		return c.st16 == crc.Good16
	}
	return c.st32 == crc.Good32
}

// TxCRC is the transmitter CRC unit: it computes the FCS over the frame
// body W octets per clock as the body streams through, then appends the
// complemented FCS octets behind the payload.
type TxCRC struct {
	In  *rtl.Wire
	Out *rtl.Wire

	W    int
	Mode crc.Size

	core *fcsCore
	// FCS octets still to transmit, the next in the low lane; fcsN > 0
	// is the append phase, in which upstream naturally stalls.
	fcs  uint64
	fcsN int

	Frames uint64
}

// Eval implements rtl.Module.
func (t *TxCRC) Eval() {
	if t.core == nil {
		t.core = newFCSCore(t.W, t.Mode)
	}
	if t.fcsN > 0 {
		if !t.Out.CanPush() {
			return
		}
		n := min(t.W, t.fcsN)
		t.Out.Push(rtl.Flit{Data: t.fcs & laneMask(n), N: n, Marks: rtl.Marks{EOF: n == t.fcsN}})
		t.fcs >>= 8 * uint(n)
		t.fcsN -= n
		return
	}
	f, ok := t.In.Peek()
	if !ok {
		return
	}
	if !t.Out.CanPush() {
		return
	}
	t.In.Take()
	if f.SOF {
		t.core.reset()
	}
	t.core.step(f)
	if f.EOF {
		t.Frames++
		// A frame aborted upstream gets no FCS: its EOF and abort mark
		// pass straight on.
		if !f.Err && !f.Abort {
			t.fcs, t.fcsN = t.core.fcsWord()
			f.EOF = false
		}
	}
	t.Out.Push(f)
}

// busy reports whether FCS octets are still queued.
func (t *TxCRC) busy() bool { return t.fcsN > 0 }

// RxCRC is the receiver CRC unit: it folds every frame octet (FCS
// included) into the running register and, at end of frame, verifies the
// magic residue, tagging the frame in error on mismatch.
type RxCRC struct {
	In  *rtl.Wire
	Out *rtl.Wire

	W    int
	Mode crc.Size

	core *fcsCore
	// judged is the FCS size the last frame end was checked under;
	// RxControl strips that frame by it on the next clock.
	judged crc.Size

	FCSErrors uint64
}

// Eval implements rtl.Module.
func (r *RxCRC) Eval() {
	if r.core == nil {
		r.core = newFCSCore(r.W, r.Mode)
	}
	f, ok := r.In.Peek()
	if !ok {
		return
	}
	if !r.Out.CanPush() {
		return
	}
	r.In.Take()
	if f.SOF {
		r.core.reset()
	}
	r.core.step(f)
	if f.EOF {
		r.judged = r.core.mode
		if !f.Err && !f.Abort && !r.core.good() {
			f.Err = true
			r.FCSErrors++
		}
		// Re-arm for frames whose SOF flit was lost to an overrun.
		r.core.reset()
	}
	r.Out.Push(f)
}
