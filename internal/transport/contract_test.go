package transport_test

import (
	"bytes"
	"testing"

	"repro/internal/sonet"
	"repro/internal/transport"
)

// inProcess lists the in-process LineTransport pairs; the ownership and
// allocation rules of the package comment are checked once, over each.
// (An external test package: internal/sonet imports this one.)
var inProcess = []struct {
	name string
	pair func() (a, z transport.LineTransport)
}{
	{"pipe", func() (a, z transport.LineTransport) { return transport.NewPipePair() }},
	{"sonet", func() (a, z transport.LineTransport) { return sonet.NewLinePair(sonet.STM16) }},
}

// TestPipeOwnershipGenerations: a chunk returned by Recv must stay
// intact until the second-following Recv, the Link receive-queue rule —
// and Send must not keep p, which the caller recycles on return.
func TestPipeOwnershipGenerations(t *testing.T) {
	for _, c := range inProcess {
		t.Run(c.name, func(t *testing.T) {
			a, z := c.pair()
			p := []byte("generation-0")
			a.Send(p)
			copy(p, "recycled-by-caller")
			a.Tick(1)
			gen0 := z.Recv(nil)
			if len(gen0) != 1 || !bytes.HasPrefix(gen0[0], []byte("generation-0")) {
				t.Fatalf("Send kept the caller's buffer: received %q", gen0)
			}
			a.Send([]byte("generation-1"))
			a.Tick(2)
			_ = z.Recv(nil) // first following Recv: gen0 must survive
			if !bytes.HasPrefix(gen0[0], []byte("generation-0")) {
				t.Fatalf("chunk invalidated by the first following Recv: %q", gen0[0][:12])
			}
		})
	}
}

func TestPipeZeroAllocSteadyState(t *testing.T) {
	for _, c := range inProcess {
		t.Run(c.name, func(t *testing.T) {
			a, z := c.pair()
			payload := bytes.Repeat([]byte{0x7E}, 512)
			var dst [][]byte
			step := func() {
				a.Send(payload)
				z.Send(payload)
				a.Tick(0)
				z.Tick(0)
				dst = a.Recv(dst[:0])
				dst = z.Recv(dst)
			}
			// Warm the arenas to steady-state capacity.
			for i := 0; i < 64; i++ {
				step()
			}
			if len(dst) != 2 {
				t.Fatalf("a warmed exchange delivered %d spans, want one per end", len(dst))
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Fatalf("steady-state exchange allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
