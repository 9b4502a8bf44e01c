package reliable

import (
	"encoding/binary"
	"testing"
)

// fifo is one direction of a line that keeps frame order: a frame is
// due d ticks after it leaves, and never before the one ahead of it.
type fifo struct {
	q   []Frame
	due []int64
}

func (l *fifo) push(f Frame, due int64) {
	if n := len(l.due); n > 0 {
		due = max(due, l.due[n-1])
	}
	l.q = append(l.q, cp(f))
	l.due = append(l.due, due)
}

func (l *fifo) pop(now int64) (Frame, bool) {
	if len(l.q) == 0 || l.due[0] > now {
		return Frame{}, false
	}
	f := l.q[0]
	l.q, l.due = l.q[1:], l.due[1:]
	return f, true
}

// FuzzStation drives station a (the initiator) and b over a FIFO line.
// The fuzz bytes, read in turn, choose each frame's fate as it leaves
// (dropped when its low three bits are all set, else delayed by its
// next four bits) and, between frames, the next action: a Send on a or
// on b, or a gap of up to 63 ticks. Once the bytes run out the line is
// clean and the stations drain. Whatever the bytes: no panic; an armed
// T1 is within [3, 1024] ticks; each end delivers an in-order
// subsequence of what the other sent, never a duplicate; and with no
// reset on either end — N2 exhausted, or a SABM reaching a station in
// ABM — the drain delivers everything sent.
func FuzzStation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 0x20, 0, 0x80, 0x7f, 0xfc})
	f.Add([]byte{0x40, 0x10, 0, 0, 0, 7, 0, 0xff, 0x0f, 0x3c, 0x7c, 1, 0x87, 0})
	f.Add([]byte{0x78, 0x78, 0x78, 0, 1, 0, 1, 0, 7, 7, 7, 0xfc, 0xfc, 0xfc, 0xfc})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var now int64
		var ab, ba fifo
		leave := func(l *fifo) func(Frame) {
			return func(f Frame) {
				if fate := next(); fate&7 != 7 {
					l.push(f, now+int64(fate>>3&15))
				}
			}
		}
		a := &Station{Out: leave(&ab)}
		b := &Station{Out: leave(&ba)}
		var sent, got [2]uint16 // per direction: a→b, b→a
		resets := 0
		deliver := func(dir int) func([]byte) {
			return func(p []byte) {
				n := binary.BigEndian.Uint16(p)
				if n < got[dir] || n >= sent[dir] {
					t.Fatalf("direction %d delivered #%d after #%d of %d sent", dir, n, got[dir], sent[dir])
				}
				got[dir] = n + 1
			}
		}
		a.Deliver, b.Deliver = deliver(1), deliver(0)
		send := func(s *Station, dir int) {
			if err := s.Send(binary.BigEndian.AppendUint16(nil, sent[dir])); err == nil {
				sent[dir]++
			}
		}
		check := func() {
			for _, s := range []*Station{a, b} {
				if s.t1 == 0 {
					continue
				}
				if p := s.Line.Period(s.backoff); p < 3 || p > 1024 || s.t1-s.now > 1024 {
					t.Fatalf("T1 %d, due in %d ticks", p, s.t1-s.now)
				}
			}
		}
		arrive := func(l *fifo, s *Station) bool {
			f, ok := l.pop(now)
			if ok {
				if classify(f.Ctrl) == kindU && f.Ctrl&ctrlUMask == ctrlSABM&ctrlUMask && s.Connected() {
					resets++
				}
				s.Receive(f)
				check()
			}
			return ok
		}
		tick := func() {
			now++
			for _, s := range []*Station{a, b} {
				was := s.Connected()
				s.Advance(now)
				if was && !s.Connected() {
					resets++ // N2 exhausted: the station reset itself
				}
			}
			check()
			for arrive(&ab, b) || arrive(&ba, a) {
			}
		}

		a.Connect()
		for len(ops) > 0 {
			switch op := next(); op & 3 {
			case 0:
				send(a, 0)
			case 1:
				send(b, 1)
			default:
				for range op >> 2 {
					tick()
				}
			}
		}
		for i := 0; i < 1<<16 && (len(ab.q)+len(ba.q) > 0 || a.t1 != 0 || b.t1 != 0); i++ {
			if len(ab.q)+len(ba.q) == 0 { // nothing in flight: skip to T1
				due := max(a.t1, b.t1)
				if a.t1 != 0 && b.t1 != 0 {
					due = min(a.t1, b.t1)
				}
				now = max(now, due-1)
			}
			tick()
		}
		if resets == 0 && got != sent {
			t.Fatalf("clean drain delivered %v of %v with no reset", got, sent)
		}
	})
}
