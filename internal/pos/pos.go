// Package pos couples the cycle-accurate P5 to the SDH/SONET transport
// — the "PHY" boxes of the paper's Figure 2 — with correct relative
// timing. At 78.125 MHz a W-octet datapath moves exactly the STM line
// rate, but a fraction of every transport frame is section/line/path
// overhead, so the payload the P5 may inject per clock is slightly less
// than W octets. The PHY models this: it serialises W line octets per
// clock, pulling payload from a one-frame staging buffer and pushing
// back on the P5 when the buffer is full. The ~3.4% SONET overhead tax
// on goodput emerges rather than being configured.
package pos

import (
	"repro/internal/rtl"
	"repro/internal/sonet"
)

// TxPHY consumes raw line words from a P5 transmitter and emits STM-N
// transport frames.
type TxPHY struct {
	In *rtl.Wire
	// Level selects the transport rate; it must match the datapath
	// width for nominal timing (W=4 ↔ STM-16, W=1 ↔ STM-4).
	Level sonet.Level
	// W is the datapath width in octets (line octets serialised per
	// clock).
	W int
	// EmitFrame receives each completed transport frame.
	EmitFrame func([]byte)

	framer  *sonet.Framer
	staging rtl.ByteFIFO
	budget  int // line octets still to serialise this frame period

	// Counters.
	Frames      uint64
	FillOctets  uint64
	InputStalls uint64
}

// frameCycles is the clock budget for one transport frame: the PHY
// serialises W line octets per clock.
func (t *TxPHY) frameCycles() int {
	return t.Level.FrameBytes() / t.W
}

// stagingCap bounds the payload buffer: one frame's worth.
func (t *TxPHY) stagingCap() int { return t.Level.PayloadBytes() }

// Eval implements rtl.Module.
func (t *TxPHY) Eval() {
	if t.framer == nil {
		t.framer = sonet.NewFramer(t.Level, nil)
		t.framer.Fill = func(dst []byte, _ int) int {
			return copy(dst, t.staging.Pop(len(dst)))
		}
		t.budget = t.Level.FrameBytes()
	}
	// Accept payload while the staging buffer has room.
	if f, ok := t.In.Peek(); ok {
		if t.staging.Len()+f.N <= t.stagingCap() {
			t.In.Take()
			var lanes [8]byte
			t.staging.Push(f.Bytes(lanes[:0])...)
		} else {
			t.InputStalls++
		}
	}
	// Serialise W line octets per clock; at each whole-frame boundary
	// cut a transport frame.
	t.budget -= t.W
	if t.budget <= 0 {
		before := t.framer.FillOctets
		frame := t.framer.NextFrame()
		t.FillOctets += t.framer.FillOctets - before
		t.Frames++
		if t.EmitFrame != nil {
			t.EmitFrame(frame)
		}
		t.budget += t.Level.FrameBytes()
	}
}

// RxPHY deframes received transport frames and feeds the recovered line
// octets to a P5 receiver, W per clock.
type RxPHY struct {
	Out *rtl.Wire
	// Level and W as for TxPHY.
	Level sonet.Level
	W     int

	deframer *sonet.Deframer
	payload  rtl.ByteFIFO

	// Counters.
	Frames uint64
}

// Feed accepts one received transport frame (call from the channel
// model between the PHYs).
func (r *RxPHY) Feed(frame []byte) {
	if r.deframer == nil {
		r.deframer = sonet.NewDeframer(r.Level, nil)
		r.deframer.Payload = func(p []byte, _ int) { r.payload.Push(p...) }
	}
	r.deframer.Feed(frame)
	r.Frames++
}

// Eval implements rtl.Module: emit up to W recovered octets per clock.
func (r *RxPHY) Eval() {
	n := r.payload.Len()
	if n == 0 {
		return
	}
	if n > r.W {
		n = r.W
	}
	if !r.Out.CanPush() {
		return
	}
	r.Out.Push(rtl.FlitOf(r.payload.Pop(n)))
}

// sectionDeframer exposes the inner deframer's monitoring counters.
func (r *RxPHY) sectionDeframer() *sonet.Deframer { return r.deframer }
