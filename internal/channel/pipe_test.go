package channel

import (
	"testing"

	"repro/internal/netsim"
)

func popAll(ln *Line, from, to int64) [][]byte {
	var out [][]byte
	for now := from; now <= to; now++ {
		out = ln.Pop(now, out)
	}
	return out
}

func TestLineZeroValueIsFIFO(t *testing.T) {
	var ln Line
	ln.Push(0, []byte{1})
	ln.Push(0, []byte{2})
	ln.Push(1, []byte{3})
	got := ln.Pop(1, nil)
	if len(got) != 3 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Fatalf("zero-value Line reordered or dropped: %v", got)
	}
	if len(ln.q) != 0 {
		t.Fatalf("pending = %d, want 0", len(ln.q))
	}
}

func TestLineFixedDelay(t *testing.T) {
	ln := Line{Delay: 3}
	ln.Push(10, []byte{42})
	if got := ln.Pop(12, nil); len(got) != 0 {
		t.Fatalf("chunk delivered %d ticks early", 13-12)
	}
	got := ln.Pop(13, nil)
	if len(got) != 1 || got[0][0] != 42 {
		t.Fatalf("chunk not delivered at now+Delay: %v", got)
	}
}

func TestLineJitterBoundedAndDeterministic(t *testing.T) {
	run := func() []int64 {
		ln := Line{Delay: 2, Jitter: 4, Rand: netsim.NewRand(99)}
		type stamp struct{ push, due int64 }
		var stamps []stamp
		for i := int64(0); i < 200; i++ {
			ln.Push(i, []byte{byte(i)})
		}
		var dues []int64
		deliveredAt := make(map[byte]int64)
		for now := int64(0); now < 300; now++ {
			for _, c := range ln.Pop(now, nil) {
				deliveredAt[c[0]] = now
			}
		}
		for i := int64(0); i < 200; i++ {
			at, ok := deliveredAt[byte(i)]
			if !ok {
				t.Fatalf("chunk %d never delivered", i)
			}
			lat := at - i
			if lat < 2 || lat > 2+4 {
				t.Fatalf("chunk %d latency %d outside [Delay, Delay+Jitter]", i, lat)
			}
			dues = append(dues, at)
		}
		_ = stamps
		return dues
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLineInOrderClampsJitter(t *testing.T) {
	ln := Line{Delay: 1, Jitter: 6, Rand: netsim.NewRand(3)}
	n := 128
	for i := 0; i < n; i++ {
		ln.Push(int64(i), []byte{byte(i)})
	}
	got := popAll(&ln, 0, int64(n)+16)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i][0] != byte(i) {
			t.Fatalf("jitter reordered the line: position %d holds chunk %d", i, got[i][0])
		}
	}
}
