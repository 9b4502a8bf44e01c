package p5

import (
	"repro/internal/rtl"
	"repro/internal/sonet"
)

// Section is the PHY of the paper's Figure 2 on the System's clock: the
// transmitter's line octets ride one STM-N section and what the far end
// recovers feeds the receiver. At 78.125 MHz a W-octet datapath moves
// exactly the STM line rate, but a share of every transport frame is
// section, line and path overhead, so the section stages at most one
// frame's payload and holds the transmitter beyond that: the ~3.4 %
// overhead tax on goodput emerges from backpressure rather than being
// configured.
type Section struct {
	// A carries the line octets (faults go on A.Inject); Z's deframer
	// recovers them, and the System's OAM watches its defect monitor.
	A, Z    *sonet.Line
	in, out *rtl.Wire // from the System's Line; to its receiver
	w       int
	level   sonet.Level
	budget  int    // line octets still to serialise this frame time
	staged  []byte // line octets for the next frame, at most one payload
	rx      []byte // recovered octets; rx[head:] is not yet fed on
	head    int
	spans   [][]byte // Z.Recv's scratch
}

// Eval implements rtl.Module: feed up to W recovered octets to the
// receiver, stage the word on the line, and every FrameBytes/W cycles
// send what is staged, cut one frame and take what Z recovered.
func (s *Section) Eval() {
	if n := min(len(s.rx)-s.head, s.w); n > 0 && s.out.CanPush() {
		s.out.Push(rtl.FlitOf(s.rx[s.head : s.head+n]))
		s.head += n
	}
	if f, ok := s.in.Peek(); ok {
		if len(s.staged)+f.N <= s.level.PayloadBytes() {
			s.in.Take()
			s.staged = f.Bytes(s.staged)
		}
	}
	if s.budget -= s.w; s.budget > 0 {
		return
	}
	s.budget += s.level.FrameBytes()
	s.A.Send(s.staged)
	s.staged = s.staged[:0]
	s.A.Tick(int64(s.A.Framer().FramesBuilt))
	s.rx, s.head = s.rx[:copy(s.rx, s.rx[s.head:])], 0
	s.spans = s.Z.Recv(s.spans[:0])
	for _, p := range s.spans {
		s.rx = append(s.rx, p...)
	}
}

// busy reports whether the section holds octets either way; a nil
// section (loopback) holds none.
func (s *Section) busy() bool {
	return s != nil && (len(s.staged) > 0 || s.head < len(s.rx))
}
