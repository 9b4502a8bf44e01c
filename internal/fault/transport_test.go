package fault

import (
	"testing"

	"repro/internal/transport"
)

func chunks(t *testing.T, p *transport.Pipe, want int) [][]byte {
	t.Helper()
	got := p.Recv(nil)
	if len(got) != want {
		t.Fatalf("got %d chunks, want %d: %v", len(got), want, got)
	}
	return got
}

func TestTransportAdapterStallWindow(t *testing.T) {
	a, z := transport.NewPipePair()
	w := WrapTransport(a).Stall(10, 20)
	w.Tick(10)
	w.Send([]byte{1})
	w.Send([]byte{2})
	chunks(t, z, 0) // held: the peer sees a silent line
	w.Tick(15)
	chunks(t, z, 0)
	w.Tick(20) // window over: the backlog flushes in order
	got := chunks(t, z, 2)
	if got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("release order %v", got)
	}
}

func TestTransportAdapterBlackoutWindow(t *testing.T) {
	a, z := transport.NewPipePair()
	w := WrapTransport(a).Blackout(10, 20)
	w.Tick(10)
	w.Send([]byte{1})
	w.Tick(20)
	w.Send([]byte{2})
	got := chunks(t, z, 1)
	if got[0][0] != 2 {
		t.Fatalf("blackout delivered %v", got)
	}
	if w.Dropped() != 1 {
		t.Fatalf("dropped=%d, want 1", w.Dropped())
	}
}
