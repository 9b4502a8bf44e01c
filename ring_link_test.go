package gigapos

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/sonet"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// ringPair builds a 4-node ring with one circuit 0↔2 and a Link on
// each end, bound to its circuit port.
func ringPair(t *testing.T, mode topo.Mode, cfg LinkConfig) (*topo.Ring, *TransportPort, *TransportPort) {
	t.Helper()
	r, err := topo.NewRing(topo.Config{Nodes: 4, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(topo.Circuit{Name: "c0", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Magic, cfgA.IPAddr = 0xAA, [4]byte{10, 0, 0, 1}
	cfgB.Magic, cfgB.IPAddr = 0xBB, [4]byte{10, 0, 0, 2}
	return r, NewTransportPort(NewLink(cfgA), pa), NewTransportPort(NewLink(cfgB), pb)
}

func ringBringUp(t *testing.T, r *topo.Ring, a, b *TransportPort, from int64) int64 {
	t.Helper()
	for _, l := range []*Link{a.Link, b.Link} {
		l.Open()
		l.Up()
	}
	now := from
	for ; now < from+2000; now++ {
		r.Tick(now)
		a.Tick(now)
		b.Tick(now)
		if a.Link.IPReady() && b.Link.IPReady() {
			return now
		}
	}
	t.Fatal("IPCP did not open over the ring")
	return now
}

// cutRing injects LOS on both directions of the fibre between u and v
// from tick at, lasting ticks.
func cutRing(t *testing.T, r *topo.Ring, u, v int, at, ticks int64) {
	t.Helper()
	uv, vu, err := r.SpansBetween(u, v)
	if err != nil {
		t.Fatal(err)
	}
	fb := int64(sonet.STM1.FrameBytes()) // every ring span is STM-1
	for _, s := range []*topo.Span{uv, vu} {
		var sc fault.Script
		sc.LOS(at*fb, int(ticks*fb))
		s.Inject = fault.NewInjector(sc).Apply
	}
}

func TestRingLinkBringUpAndTransfer(t *testing.T) {
	r, a, b := ringPair(t, topo.UPSR, LinkConfig{})
	now := ringBringUp(t, r, a, b, 0)
	want := [][]byte{{0x45, 1, 2, 3}, {0x45, 9, 8, 7, 6}}
	for _, d := range want {
		if err := a.Link.SendIPv4(d); err != nil {
			t.Fatal(err)
		}
	}
	var got []Datagram
	for end := now + 50; now < end; now++ {
		r.Tick(now)
		a.Tick(now)
		b.Tick(now)
		got = append(got, b.Link.ReceivedInto(nil)...)
	}
	if len(got) != len(want) {
		t.Fatalf("received %d datagrams, want %d", len(got), len(want))
	}
	for i, d := range got {
		if string(d.Payload) != string(want[i]) {
			t.Fatalf("datagram %d = % x", i, d.Payload)
		}
	}
}

func TestRingLinkHitlessCutNoRenegotiation(t *testing.T) {
	r, a, b := ringPair(t, topo.UPSR, LinkConfig{})

	new(Watch).ObservePair(Observation{Registry: telemetry.NewRegistry(), Flight: &flight.Config{Dir: t.TempDir()}}, "ring", a, b)
	rb, pb := b.Link.Flight(), b.T.(*topo.Port)

	now := ringBringUp(t, r, a, b, 0)
	cutAt := now + 100
	cutRing(t, r, 0, 1, cutAt, 100000)

	sent, received := 0, 0
	lcpDrops := 0
	for end := now + 1500; now < end; now++ {
		if now == cutAt-1 || now%3 == 0 {
			if err := a.Link.SendIPv4([]byte{0x45, byte(sent), byte(sent >> 8)}); err == nil {
				sent++
			}
		}
		r.Tick(now)
		a.Tick(now)
		b.Tick(now)
		if !b.Link.Opened() {
			lcpDrops++
		}
		received += len(b.Link.ReceivedInto(nil))
	}
	if lcpDrops != 0 {
		t.Fatalf("LCP dropped for %d ticks across the switch — not hitless", lcpDrops)
	}
	if pb.Switches != 1 {
		t.Fatalf("switches = %d, want 1", pb.Switches)
	}
	if d := pb.LastFailover; d <= 0 || d > 400 {
		t.Fatalf("switch healed %d dark ticks, budget 400", d)
	}
	if rb.CapturesFor("ring-switch") == 0 {
		t.Fatal("no ring-switch flight capture on the switching end")
	}
	if received < sent*9/10 {
		t.Fatalf("received %d of %d datagrams", received, sent)
	}
}

func TestRingLinkSquelchEscalatesToSupervisor(t *testing.T) {
	r, a, b := ringPair(t, topo.UPSR, LinkConfig{Supervise: true})
	tr := telemetry.NewTracer(64)
	a.Observe(Observation{Registry: telemetry.NewRegistry(), Tracer: tr}, "ring_a")
	now := ringBringUp(t, r, a, b, 0)
	// Isolate node 2 (b's node): both of its fibres die.
	cutRing(t, r, 1, 2, now+50, 100000)
	cutRing(t, r, 2, 3, now+50, 100000)
	for end := now + 800; now < end; now++ {
		r.Tick(now)
		a.Tick(now)
		b.Tick(now)
	}
	if a.T.Up() {
		t.Fatal("surviving end's port not squelched")
	}
	if a.Link.Supervisor().DefectOutages == 0 {
		t.Fatal("squelch did not escalate to the supervisor")
	}
	squelched := false
	for _, e := range tr.Events() {
		squelched = squelched || e.Scope == "ring:ring_a" && e.Name == "ring-squelch" && e.Detail == "c0" && e.V1 == 1
	}
	if !squelched {
		t.Error("the squelch did not reach the tracer")
	}
}
