package p5

import (
	"errors"

	"repro/internal/ppp"
	"repro/internal/rtl"
)

// Receive-side frame disposition errors.
var (
	// ErrRxAborted marks frames terminated by an abort sequence, a
	// line overrun, or an FCS failure detected in-stream.
	ErrRxAborted = errors.New("p5: frame aborted or damaged in stream")
	// ErrRxRunt marks frames too short to carry a header plus FCS.
	ErrRxRunt = errors.New("p5: runt frame")
)

// RxFrame is one received frame as delivered to shared memory.
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
	// of appending to Queue.
	Deliver func(RxFrame)
	// Queue is the shared-memory receive queue.
	Queue []RxFrame

	buf []byte

	// Counters surfaced through the OAM.
	Good      uint64
	Bad       uint64
	Aborted   uint64
	Runts     uint64
	Delivered uint64
}

func (rc *RxControl) minFrame() int {
	// Header (addr+ctrl+proto) + FCS.
	return 4 + rc.Regs.FCSMode().Bytes()
}

// Eval implements rtl.Module.
func (rc *RxControl) Eval() {
	f, ok := rc.In.Take() // memory writes never stall
	if !ok {
		return
	}
	if f.SOF {
		rc.buf = rc.buf[:0]
	}
	rc.buf = f.Bytes(rc.buf)
	if !f.EOF {
		return
	}
	rc.complete(f.Err, f.Abort)
}

func (rc *RxControl) complete(streamErr, aborted bool) {
	body := make([]byte, len(rc.buf))
	copy(body, rc.buf)
	rc.buf = rc.buf[:0]
	out := RxFrame{Body: body}
	switch {
	case aborted:
		rc.Aborted++
		rc.Bad++
		out.Err = ErrRxAborted
	case len(body) < rc.minFrame():
		// Too short to be a frame at all — classified as a runt even
		// when the stream also flagged it (noise bursts do both).
		rc.Runts++
		rc.Bad++
		out.Err = ErrRxRunt
	case streamErr:
		rc.Aborted++
		rc.Bad++
		out.Err = ErrRxAborted
	default:
		frame := new(ppp.Frame)
		if err := ppp.DecodeBodyInto(frame, body, rc.pppConfig()); err != nil {
			rc.Bad++
			out.Err = err
		} else {
			rc.Good++
			out.Frame = frame
		}
	}
	rc.Delivered++
	if rc.Deliver != nil {
		rc.Deliver(out)
		return
	}
	rc.Queue = append(rc.Queue, out)
}

func (rc *RxControl) pppConfig() ppp.Config {
	return ppp.Config{
		Address:    rc.Regs.Address(),
		AnyAddress: rc.Regs.AnyAddress(),
		FCS:        rc.Regs.FCSMode(),
		MRU:        rc.Regs.MRU(),
	}
}
