package lcp

import "testing"

// FuzzParsePacket must never panic, and valid parses must re-marshal
// to a prefix-equal encoding.
func FuzzParsePacket(f *testing.F) {
	f.Add([]byte{1, 1, 0, 4})
	f.Add([]byte{9, 2, 0, 8, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParsePacket(b)
		if err != nil {
			return
		}
		re := p.Marshal(nil)
		if len(re) > len(b) {
			t.Fatal("re-marshal grew")
		}
		for i := range re {
			if re[i] != b[i] {
				t.Fatalf("re-marshal differs at %d", i)
			}
		}
	})
}

// FuzzParseOptions + automaton: a fuzzed packet must never panic the
// automaton in any state — received, after a timeout, and again. Then,
// on a fresh automaton, the restart timer stays within
// [DefaultRestartPeriod, maxRestartPeriod] whatever the peer sends and
// whenever it sends it: each data octet is a gap in ticks (scaled by
// its low bits up to ~16 000) before the next packet, alternately the
// fuzzed one and a well-formed reply to the outstanding request.
func FuzzReceive(f *testing.F) {
	f.Add(byte(1), byte(1), []byte{1, 4, 5, 220})
	f.Add(byte(5), byte(9), []byte{})
	f.Add(byte(42), byte(0), []byte{0, 0})
	f.Add(byte(2), byte(1), []byte{0x3f, 0x07, 0xff, 1, 0x87, 0x47, 9, 0xc0})
	f.Fuzz(func(t *testing.T, code, id byte, data []byte) {
		a := NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
		a.Open()
		a.Up()
		a.Receive(&Packet{Code: Code(code), ID: id, Data: data})
		a.Advance(100)
		a.Receive(&Packet{Code: Code(code), ID: id, Data: data})

		a = NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
		a.Open()
		a.Up()
		now := int64(0)
		for i, gap := range append([]byte{0}, data...) {
			now += int64(gap>>3) << (gap & 7)
			a.Advance(now)
			if i%2 == 0 {
				a.Receive(&Packet{Code: Code(code), ID: id, Data: data})
			} else {
				a.Receive(&Packet{Code: Code(code&1 + 2), ID: a.id, Data: MarshalOptions(nil, a.reqOpts)})
			}
			if p := a.Line.Period(a.backoff); p < DefaultRestartPeriod || p > maxRestartPeriod {
				t.Fatalf("restart timer %d outside [%d, %d]", p, DefaultRestartPeriod, maxRestartPeriod)
			}
			if a.deadline != 0 && (a.deadline-a.now < 1 || a.deadline-a.now > maxRestartPeriod) {
				t.Fatalf("timer armed %d ticks ahead", a.deadline-a.now)
			}
		}
	})
}
