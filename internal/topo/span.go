package topo

import (
	"repro/internal/channel"
	"repro/internal/sonet"
)

// Span is one directed fibre between adjacent nodes: the source node's
// framer, an optional fault injector, a delay/jitter line, and the
// destination node's deframer with its defect monitor. One transport
// frame crosses it per tick, so a fault script's octet offsets map to
// ticks as offset = tick · FrameBytes.
type Span struct {
	From, To int

	// Inject, when set, passes every frame the span transmits on its way
	// into the fibre (fault.Injector.Apply: scripted cuts, slips, noise
	// bursts, its offsets counting transmitted octets from tick zero).
	// It gets the span's own copy of the frame: it may edit it in
	// place, resize it, or return nil, as sonet.Line.Inject.
	Inject func(frame []byte) []byte

	// Line models the fibre's propagation delay and jitter.
	Line channel.Line

	fr *sonet.Framer
	df *sonet.Deframer

	DarkFrames uint64 // zero frames launched while the source was failed
}

func newSpan(r *Ring, rot Rotation, from, to int) *Span {
	s := &Span{From: from, To: to}
	s.Line = channel.Line{Delay: r.Cfg.Delay, Jitter: r.Cfg.Jitter}
	if r.Cfg.Jitter > 0 {
		s.Line.Rand = newRand(spanSeed(r.Cfg.Seed, rot, from))
	}
	// The slot of a payload octet is its offset in the frame over the
	// block size. The offset comes with every row, so a resync after a
	// slip or cut cannot leave the slots rotated.
	s.fr = sonet.NewFramer(level, nil)
	s.fr.Fill = func(dst []byte, off int) int {
		for i := range dst {
			dst[i] = r.nodes[from].txByte(rot, (off+i)/r.block)
		}
		return len(dst)
	}
	s.df = sonet.NewDeframer(level, nil)
	s.df.Payload = func(p []byte, off int) {
		// While the line is service-affected the deframer may still
		// deliver frames at the assumed boundary (the defect monitor's
		// persistence contract), but their payload is meaningless — an
		// ADM inserts path AIS downstream instead of garbage.
		ais := s.df.Defects.Active()&sonet.ServiceAffecting != 0
		for i, b := range p {
			if ais {
				b = aisOctet
			}
			r.nodes[to].rxByte(rot, (off+i)/r.block, b)
		}
	}
	return s
}

// Deframer exposes the receive-side deframer (defect monitor, parity
// and resync counters) for assertions and stats.
func (s *Span) Deframer() *sonet.Deframer { return s.df }
