package p5

import (
	"encoding/binary"
	"errors"

	"repro/internal/ppp"
	"repro/internal/rtl"
)

// Receive-side frame disposition errors.
var (
	// errRxAborted marks frames terminated by an abort sequence, a
	// line overrun, or an FCS failure detected in-stream.
	errRxAborted = errors.New("p5: frame aborted or damaged in stream")
	// errRxRunt marks frames too short to carry a header plus FCS.
	errRxRunt = errors.New("p5: runt frame")
)

// RxFrame is one received frame as delivered to shared memory.
//
// Body and Frame live in the receiver's double-buffered arena, the rule
// Link, Pipe and sonet.Line share: a frame handed out by one drain
// (Received or ReceivedInto) stays intact through the next drain and is
// recycled after it. Consume or copy it before then.
type RxFrame struct {
	// Frame is the decoded PPP frame; nil when Err is set.
	Frame *ppp.Frame
	// Body is the raw destuffed frame body (header..FCS) for
	// diagnostics.
	Body []byte
	// Err is the disposition when the frame was not deliverable.
	Err error
}

// RxControl is the receiver control unit: it assembles the destuffed,
// CRC-checked octet stream into frames, polices address/MRU per the OAM
// registers, strips the FCS and writes decoded frames into the
// shared-memory receive queue.
type RxControl struct {
	In *rtl.Wire

	// Regs supplies the programmable receive configuration.
	Regs *Regs
	// Deliver, when set, is called for every completed frame instead
	// of appending to Queue; the frame follows RxFrame's ownership rule.
	Deliver func(RxFrame)
	// Queue is the shared-memory receive queue.
	Queue []RxFrame

	clockSample
	// judge checked the frames on In: their FCS is stripped by the size
	// it judged them under (the clock's sample when nil, on a bare Sim).
	judge *RxCRC

	// The arena: frame octets (whole flits appended) and decoded
	// headers, with the other half of the double buffer and the queue's
	// beside them. start is where the frame being assembled begins.
	octets, spareOctets []byte
	frames, spareFrames []ppp.Frame
	spareQueue          []RxFrame
	start               int

	// Counters surfaced through the OAM.
	Good  uint64
	Bad   uint64
	Runts uint64
}

// Eval implements rtl.Module.
func (rc *RxControl) Eval() {
	f, ok := rc.In.Take() // memory writes never stall
	if !ok {
		return
	}
	if f.SOF {
		rc.octets = rc.octets[:rc.start]
	}
	if cap(rc.octets)-len(rc.octets) < 8 {
		// A fresh, doubled chunk: delivered frames keep the old one.
		grown := make([]byte, 0, max(2*cap(rc.octets), 4096))
		rc.octets, rc.start = append(grown, rc.octets[rc.start:]...), 0
	}
	// One 8-octet store per flit; the lanes past N land in free space.
	n := len(rc.octets)
	binary.LittleEndian.PutUint64(rc.octets[n:n+8], f.Data)
	rc.octets = rc.octets[:n+f.N]
	if f.EOF {
		rc.complete(f.Err, f.Abort)
	}
}

func (rc *RxControl) complete(streamErr, aborted bool) {
	rx := rc.get(rc.Regs).rx
	if rc.judge != nil {
		rx.FCS = rc.judge.judged
	}
	body := rc.octets[rc.start:len(rc.octets):len(rc.octets)]
	rc.start = len(rc.octets)
	out := RxFrame{Body: body}
	switch {
	case !aborted && len(body) < 4+rx.FCS.Bytes(): // header (addr+ctrl+proto) + FCS
		// Too short to be a frame at all — classified as a runt even
		// when the stream also flagged it (noise bursts do both).
		rc.Runts++
		out.Err = errRxRunt
	case aborted || streamErr:
		out.Err = errRxAborted
	default:
		// RxCRC has given the FCS verdict; the decode only parses.
		var frame ppp.Frame
		if out.Err = ppp.DecodeVerifiedBodyInto(&frame, body, rx); out.Err == nil {
			rc.Good++
			rc.frames = append(rc.frames, frame)
			out.Frame = &rc.frames[len(rc.frames)-1]
		}
	}
	if out.Err != nil {
		rc.Bad++
	}
	if rc.Deliver != nil {
		rc.Deliver(out)
		return
	}
	rc.Queue = append(rc.Queue, out)
}

// rewind restarts the arena at its front, for a Deliver callback that
// copies out every frame it is handed.
func (rc *RxControl) rewind() {
	rc.octets, rc.frames, rc.start = rc.octets[:0], rc.frames[:0], 0
}

// drain hands out the receive queue and flips the double buffer: the
// frames it returns stay intact until the next drain, and the half they
// leave is refilled after it. A frame still being assembled moves across.
func (rc *RxControl) drain() []RxFrame {
	rc.Queue, rc.spareQueue = rc.spareQueue[:0], rc.Queue
	rc.octets, rc.spareOctets = append(rc.spareOctets[:0], rc.octets[rc.start:]...), rc.octets
	rc.frames, rc.spareFrames = rc.spareFrames[:0], rc.frames
	rc.start = 0
	return rc.spareQueue
}
