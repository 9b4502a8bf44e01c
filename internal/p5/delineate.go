package p5

import (
	"repro/internal/hdlc"
	"repro/internal/rtl"
)

// delineator is the receiver's frame-alignment front end: it hunts for
// flag octets in the raw line word stream — a flag can sit in any lane,
// the condition that forces the 32-bit receiver's sorting logic — and
// carves out the stuffed frame content between flags, detecting aborts
// (escape immediately followed by flag).
//
// A PHY cannot be stalled, so the delineator takes a word every cycle it
// is offered one; if its small buffer overflows because downstream is
// stalled, octets are dropped and the damaged frame is marked in error
// (the Overruns counter records it).
type delineator struct {
	In  *rtl.Wire // raw line words from the PHY
	Out *rtl.Wire // stuffed frame content, SOF/EOF/Err marked

	// W is the datapath width in octets.
	W int

	fifo    resync
	inFrame bool
	content int  // content octets seen in the current frame
	lastEsc bool // previous content octet was an escape
	dropped bool // current frame suffered an overrun

	// Counters surfaced through the OAM.
	FlagsSeen uint64
	Aborts    uint64
	Overruns  uint64
}

// bufCap bounds the internal buffer: eight words.
func (dl *delineator) bufCap() int { return 8 * dl.W }

// busy reports whether frame content is still buffered.
func (dl *delineator) busy() bool { return dl.fifo.count() > 0 }

// Eval implements rtl.Module.
func (dl *delineator) Eval() {
	if dl.fifo.limit == 0 {
		dl.fifo.reserve(dl.bufCap())
	}
	dl.evalOutput()
	f, ok := dl.In.Take() // never refuse the PHY
	if !ok {
		return
	}
	data := f.Data
	if dl.inFrame && f.N > 0 && lanesEqual(data, hdlc.Flag)&validLanes(f.N) == 0 &&
		dl.fifo.count()+f.N <= dl.fifo.limit {
		// No flag in any lane and room for the whole word: every lane
		// is content of the open frame.
		dl.fifo.push(data, f.N, dl.content == 0)
		dl.content += f.N
		dl.lastEsc = f.Byte(f.N-1) == hdlc.Escape
		return
	}
	for i := 0; i < f.N; i, data = i+1, data>>8 {
		dl.octet(byte(data))
	}
}

func (dl *delineator) octet(b byte) {
	if b == hdlc.Flag {
		dl.FlagsSeen++
		if dl.inFrame && dl.content > 0 {
			dl.closeFrame()
		}
		dl.inFrame = true
		dl.content = 0
		dl.lastEsc = false
		dl.dropped = false
		return
	}
	if !dl.inFrame {
		return // inter-frame fill / pre-alignment garbage
	}
	if dl.fifo.count() >= dl.fifo.limit {
		dl.Overruns++
		dl.dropped = true
		dl.content++
		return
	}
	dl.fifo.push(uint64(b), 1, dl.content == 0)
	dl.content++
	dl.lastEsc = b == hdlc.Escape
}

func (dl *delineator) closeFrame() {
	abort := dl.lastEsc
	if abort {
		// Abort sequence: the frame was deliberately cancelled.
		dl.Aborts++
	}
	dl.fifo.mark(dl.dropped, abort)
}

// evalOutput drains buffered content downstream, cutting at frame ends.
func (dl *delineator) evalOutput() {
	f, take, ok := dl.fifo.pack(dl.W)
	if !ok {
		return
	}
	if !f.EOF && f.N < dl.W {
		// Mid-frame partial word: wait for more line octets unless the
		// line has gone quiet.
		if _, more := dl.In.Peek(); more {
			return
		}
	}
	if !dl.Out.CanPush() {
		return
	}
	dl.fifo.drop(take)
	dl.Out.Push(f)
}
