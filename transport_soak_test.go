package gigapos

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/transport"
)

// These are the socket-robustness soaks: links carried by real
// transports — in-process pipes for the allocation pin, real UDP
// sockets for the chaos drills — with the transport-level fault
// adapter scripting blackouts, stalls, duplication and reorder.

// udpPair returns connected UDP endpoints on the loopback interface.
func udpPair(t *testing.T, cfg transport.Config) (ln, dl *transport.UDP) {
	t.Helper()
	ln, err := transport.NewUDP(transport.UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	dl, err = transport.NewUDP(transport.UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); dl.Close() })
	return ln, dl
}

// supervisedPorts builds a supervised link pair carried by the given
// transports.
func supervisedPorts(ta, tz transport.LineTransport) (a, z *TransportPort) {
	la := NewLink(LinkConfig{
		Magic: 0xA0000001, IPAddr: [4]byte{10, 9, 0, 1},
		Supervise: true, RetryMin: 8, RetryMax: 64,
	})
	lz := NewLink(LinkConfig{
		Magic: 0xA0000002, IPAddr: [4]byte{10, 9, 0, 2},
		Supervise: true, RetryMin: 8, RetryMax: 64,
	})
	la.Open()
	la.Up()
	lz.Open()
	lz.Up()
	return NewTransportPort(la, ta), NewTransportPort(lz, tz)
}

// TestTransportChaosSoakUDP is the acceptance drill for the socket
// line: two supervised links exchange traffic over real UDP loopback
// sockets; a scripted 500-tick blackout (the fault adapter mutes the
// line — data, keepalives and receive) must escalate into exactly one
// transport-LOS defect outage with exactly one flight capture per end,
// the supervisor must bring the link back once the window ends, and
// afterwards the link must hold steady — zero further renegotiations,
// and never a corrupted datagram delivered to IP.
func TestTransportChaosSoakUDP(t *testing.T) {
	kcfg := transport.Config{KeepalivePeriod: 32, KeepaliveMisses: 3}
	ln, dl := udpPair(t, kcfg)

	const blackoutFrom, blackoutTo = 1200, 1700
	chaos := fault.WrapTransport(ln).Blackout(blackoutFrom, blackoutTo)
	pa, pz := supervisedPorts(chaos, dl)

	// Each end on its own, as two processes would arm them: recorders
	// and captures, no joined pipe.
	pa.Link.Observe(Observation{Flight: &flight.Config{}}, "chaos_a")
	pz.Link.Observe(Observation{Flight: &flight.Config{}}, "chaos_z")
	ra, rz := pa.Link.Flight(), pz.Link.Flight()

	template := make([]byte, 256)
	for i := range template {
		template[i] = byte(i*31 + 7)
	}
	var rx []Datagram
	var delivered, corrupted int
	now := int64(0)
	run := func(ticks int) {
		for i := 0; i < ticks; i++ {
			now++
			pa.Tick(now)
			pz.Tick(now)
			if pa.Link.IPReady() {
				pa.Link.SendIPv4(template)
			}
			if pz.Link.IPReady() {
				pz.Link.SendIPv4(template)
			}
			rx = pa.Link.ReceivedInto(rx[:0])
			rx = pz.Link.ReceivedInto(rx)
			for j := range rx {
				delivered++
				if !bytes.Equal(rx[j].Payload, template) {
					corrupted++
				}
			}
			// Map virtual ticks onto a little real time so the socket
			// reader goroutines keep pace with the tick loop.
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Bring-up and steady traffic.
	run(1000)
	if !pa.Link.IPReady() || !pz.Link.IPReady() {
		t.Fatalf("links not up over UDP: a=%v z=%v", pa.Link.IPReady(), pz.Link.IPReady())
	}
	if delivered == 0 {
		t.Fatal("no datagrams delivered before the blackout")
	}

	// Through the blackout: dead-peer detection must fire on both ends
	// and take the links down.
	run(blackoutTo - int(now))
	if pa.Link.Opened() || pz.Link.Opened() {
		t.Fatalf("links survived a 500-tick blackout: a=%v z=%v",
			pa.Link.Opened(), pz.Link.Opened())
	}
	supA := pa.Link.Supervisor()
	if supA.DefectOutages != 1 {
		t.Fatalf("a-side defect outages = %d, want exactly 1", supA.DefectOutages)
	}
	if n := ra.CapturesFor("transport-los"); n != 1 {
		t.Fatalf("a-side transport-los flight captures = %d, want exactly 1", n)
	}
	if n := rz.CapturesFor("transport-los"); n != 1 {
		t.Fatalf("z-side transport-los flight captures = %d, want exactly 1", n)
	}

	// Recovery: the window is over; keepalives re-establish liveness,
	// the all-clear kicks the supervisor, LCP/IPCP renegotiate.
	deadline := time.Now().Add(10 * time.Second)
	for !(pa.Link.IPReady() && pz.Link.IPReady()) {
		if time.Now().After(deadline) {
			t.Fatalf("links did not recover after the blackout: a=%v z=%v",
				pa.Link.lcpA.State(), pz.Link.lcpA.State())
		}
		run(64)
	}
	supA = pa.Link.Supervisor()
	if supA.Recoveries < 1 {
		t.Fatalf("a-side recoveries = %d, want >= 1", supA.Recoveries)
	}

	// Steady state after restore: no further renegotiations, no
	// further outages, no further captures.
	restartsAfter := supA.Restarts
	deliveredBefore := delivered
	run(1500)
	if !pa.Link.IPReady() || !pz.Link.IPReady() {
		t.Fatal("links flapped after recovery")
	}
	supA = pa.Link.Supervisor()
	if supA.Restarts != restartsAfter {
		t.Fatalf("%d LCP renegotiations after restore, want 0",
			supA.Restarts-restartsAfter)
	}
	if supA.DefectOutages != 1 {
		t.Fatalf("defect outages grew to %d after restore", supA.DefectOutages)
	}
	if n := ra.CapturesFor("transport-los"); n != 1 {
		t.Fatalf("transport-los captures grew to %d after restore", n)
	}
	if delivered == deliveredBefore {
		t.Fatal("no traffic after recovery")
	}
	if corrupted != 0 {
		t.Fatalf("%d corrupted datagrams delivered to IP (of %d)", corrupted, delivered)
	}
}

// TestTransportDupReorderSoakUDP drives sustained random duplication
// and reorder through the chaos adapter over real UDP sockets: the
// sequence-number defense plus HDLC's FCS must keep every datagram
// that reaches IP intact — impairments may cost throughput, never
// correctness.
func TestTransportDupReorderSoakUDP(t *testing.T) {
	ln, dl := udpPair(t, transport.Config{})
	// Impair both directions: dup and reorder, no outright drops, so
	// sustained delivery is expected alongside the chaos.
	ca := fault.WrapTransport(ln).Randomize(101, 0, 0.10, 0.10)
	cz := fault.WrapTransport(dl).Randomize(202, 0, 0.10, 0.10)
	pa, pz := supervisedPorts(ca, cz)

	template := make([]byte, 200)
	for i := range template {
		template[i] = byte(i ^ 0x5A)
	}
	var rx []Datagram
	var delivered, corrupted int
	now := int64(0)
	for tick := 0; tick < 3000; tick++ {
		now++
		pa.Tick(now)
		pz.Tick(now)
		if pa.Link.IPReady() {
			pa.Link.SendIPv4(template)
		}
		if pz.Link.IPReady() {
			pz.Link.SendIPv4(template)
		}
		rx = pa.Link.ReceivedInto(rx[:0])
		rx = pz.Link.ReceivedInto(rx)
		for j := range rx {
			delivered++
			if !bytes.Equal(rx[j].Payload, template) {
				corrupted++
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
	if ca.Duplicated() == 0 && cz.Duplicated() == 0 {
		t.Fatal("soak produced no duplications")
	}
	if delivered < 100 {
		t.Fatalf("only %d datagrams delivered under dup/reorder chaos", delivered)
	}
	if corrupted != 0 {
		t.Fatalf("%d corrupted datagrams delivered to IP (of %d)", corrupted, delivered)
	}
	// The wire-level defense must have actually engaged: duplicated
	// datagrams arrive with stale sequence numbers and are dropped
	// before the HDLC stream.
	if st := ln.Stats(); st.RxDropped == 0 {
		t.Logf("note: listener saw no stale datagrams (%+v)", st)
	}
}

// TestEngineTransportPipeZeroAlloc pins the tentpole's steady-state
// cost: an engine whose wire is carried by in-process pipe transports
// must still run allocation-free per step once warm — the transport
// seam adds queue rotation and arena copies, never garbage.
func TestEngineTransportPipeZeroAlloc(t *testing.T) {
	e := NewEngine(EngineConfig{
		Links: 2, Shards: 1, PayloadSize: 256, Batch: 4,
		Transport: func(port int) (a, z transport.LineTransport) {
			return transport.NewPipePair()
		},
	})
	defer e.Close()
	if bu := e.BringUp(1024); !bu.Ready {
		t.Fatalf("bring-up over pipe transports failed: %s", bu)
	}
	// Warm every arena and queue to steady-state capacity.
	e.Run(64)
	if avg := testing.AllocsPerRun(100, func() { e.Run(1) }); avg != 0 {
		t.Fatalf("steady-state transport step allocates %.1f times per run, want 0", avg)
	}
	st := e.Stats()
	if st.Datagrams == 0 || st.LineBytes == 0 {
		t.Fatalf("no traffic moved over pipe transports: %+v", st)
	}
	ts := e.TransportStats()
	if ts.TxChunks == 0 || ts.RxChunks == 0 {
		t.Fatalf("transport counters empty: %+v", ts)
	}
}

// TestTransportUDPSteadyZeroAlloc holds the armed socket loop — real
// UDP loopback pair, v2 latency-tracing header, flight recorders,
// capture correlation and latency meter, the op
// BenchmarkTransportUDPSteady times — to zero allocations per op:
// tracing rides the pooled buffers or it does not ship. The count is
// process-wide, so the reader goroutines' receive path is inside it.
func TestTransportUDPSteadyZeroAlloc(t *testing.T) {
	step, dl := udpSteadyOp(t)
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("armed UDP steady state allocates %.1f times per op, want 0", avg)
	}
	if st := dl.Stats(); st.RxChunks == 0 {
		t.Fatalf("nothing crossed the socket: %+v", st)
	}
}

// remoteLine is what TestEngineRemote needs of a socket endpoint: the
// line contract plus the bound address its peer dials.
type remoteLine interface {
	transport.LineTransport
	LocalAddr() net.Addr
}

// TestEngineRemote interconnects two single-ended engines — the
// listener half (RoleA) and the dialer half (RoleZ) — over real
// loopback sockets, once per socket transport: the two-process p5sim
// topology, in one process so the test can observe both sides.
func TestEngineRemote(t *testing.T) {
	for _, tr := range []struct {
		name string
		open func(cfg transport.Config, listen, dial string) (remoteLine, error)
	}{
		{"udp", func(cfg transport.Config, listen, dial string) (remoteLine, error) {
			return transport.NewUDP(transport.UDPConfig{Config: cfg, ListenAddr: listen, DialAddr: dial})
		}},
		{"tcp", func(cfg transport.Config, listen, dial string) (remoteLine, error) {
			return transport.NewTCP(transport.TCPConfig{Config: cfg, ListenAddr: listen, DialAddr: dial})
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			const nLinks = 2
			kcfg := transport.Config{KeepalivePeriod: 64, KeepaliveMisses: 5}

			listeners := make([]remoteLine, nLinks)
			for i := range listeners {
				ln, err := tr.open(kcfg, "127.0.0.1:0", "")
				if err != nil {
					t.Fatal(err)
				}
				listeners[i] = ln
			}
			eA := NewEngine(EngineConfig{
				Links: nLinks, Shards: 1, PayloadSize: 256, Batch: 2,
				Link: LinkConfig{Supervise: true},
				Role: RoleA,
				Transport: func(port int) (a, z transport.LineTransport) {
					return listeners[port], nil
				},
			})
			defer eA.Close()
			eZ := NewEngine(EngineConfig{
				Links: nLinks, Shards: 1, PayloadSize: 256, Batch: 2,
				Link: LinkConfig{Supervise: true},
				Role: RoleZ,
				Transport: func(port int) (a, z transport.LineTransport) {
					dl, err := tr.open(kcfg, "", listeners[port].LocalAddr().String())
					if err != nil {
						t.Fatalf("dial port %d: %v", port, err)
					}
					return nil, dl
				},
			})
			defer eZ.Close()

			deadline := time.Now().Add(15 * time.Second)
			for !(eA.Ready() && eZ.Ready()) {
				if time.Now().After(deadline) {
					t.Fatalf("remote engines never converged: a=%v z=%v", eA.Ready(), eZ.Ready())
				}
				eA.Run(1)
				eZ.Run(1)
				time.Sleep(50 * time.Microsecond)
			}
			for i := 0; i < 2000; i++ {
				eA.Run(1)
				eZ.Run(1)
				time.Sleep(50 * time.Microsecond)
			}
			for name, e := range map[string]*Engine{"A": eA, "Z": eZ} {
				st := e.Stats()
				if st.Datagrams == 0 {
					t.Errorf("engine %s delivered no datagrams: %+v", name, st)
				}
				ts := e.TransportStats()
				if ts.TxChunks == 0 || ts.RxChunks == 0 {
					t.Errorf("engine %s transport counters empty: %+v", name, ts)
				}
				var names []string
				e.EachTransport(func(n string, _ transport.LineTransport) { names = append(names, n) })
				if len(names) != nLinks {
					t.Errorf("engine %s transports: %v, want %d", name, names, nLinks)
				}
			}
			if a, z := eA.Port(0); a == nil || z != nil {
				t.Error("RoleA engine port shape wrong: want local a, nil z")
			}
		})
	}
}

// TestEngineBringUpDeadline: a single-ended engine with no peer cannot
// converge; BringUp must come back within its deadline naming the
// ports that failed instead of a bare false.
func TestEngineBringUpDeadline(t *testing.T) {
	ln, err := transport.NewUDP(transport.UDPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{
		Links: 2, Shards: 1,
		Role: RoleA,
		Transport: func(port int) (a, z transport.LineTransport) {
			if port == 0 {
				return ln, nil
			}
			p1, _ := transport.NewPipePair()
			return p1, nil
		},
	})
	defer e.Close()
	bu := e.BringUp(64)
	if bu.Ready {
		t.Fatal("peerless engine reported Ready")
	}
	if bu.Steps < 64 {
		t.Fatalf("gave up after %d steps, deadline was 64", bu.Steps)
	}
	if len(bu.Failed) != 2 {
		t.Fatalf("failed ports: %+v, want both", bu.Failed)
	}
	for i, f := range bu.Failed {
		if f.Port != i || f.AReady || !f.ZReady {
			t.Fatalf("failed port %d record: %+v", i, f)
		}
	}
	if s := bu.String(); s == "" || s == fmt.Sprint(false) {
		t.Fatalf("BringUpResult.String unusable: %q", s)
	}
}

// TestTransportCorrelatedCapturesUDP is the distributed-observatory
// acceptance drill (DESIGN.md §16): a symmetric blackout over real UDP
// loopback fires local transport-LOS detection on BOTH ends, so both
// dump uncorrelated black boxes while the line is dark. The
// correlation leader mints an incident ID and freeze-pings the peer;
// the ping can only land after the window, where the follower must
// back-stamp the ID onto the capture it already wrote — leaving
// exactly one capture pair on disk sharing one nonzero incident ID,
// with no ping-pong extras.
func TestTransportCorrelatedCapturesUDP(t *testing.T) {
	kcfg := transport.Config{KeepalivePeriod: 32, KeepaliveMisses: 3}
	ln, dl := udpPair(t, kcfg)

	const blackoutFrom, blackoutTo = 1200, 1700
	chaos := fault.WrapTransport(ln).Blackout(blackoutFrom, blackoutTo)
	pa, pz := supervisedPorts(chaos, dl)

	dirA, dirZ := t.TempDir(), t.TempDir()
	pa.Observe(Observation{Flight: &flight.Config{Dir: dirA}}, "corr_a")
	pz.Observe(Observation{Flight: &flight.Config{Dir: dirZ}}, "corr_z")
	if pa.fz == nil || pz.fz == nil {
		t.Fatal("UDP transports did not expose the freeze channel")
	}
	ra, rz := pa.Link.Flight(), pz.Link.Flight()

	now := int64(0)
	run := func(ticks int) {
		for i := 0; i < ticks; i++ {
			now++
			pa.Tick(now)
			pz.Tick(now)
			if pa.Link.IPReady() {
				pa.Link.SendIPv4([]byte("observe"))
			}
			if pz.Link.IPReady() {
				pz.Link.SendIPv4([]byte("observe"))
			}
			pa.Link.ReceivedInto(nil)
			pz.Link.ReceivedInto(nil)
			time.Sleep(50 * time.Microsecond)
		}
	}

	run(1000)
	if !pa.Link.IPReady() || !pz.Link.IPReady() {
		t.Fatal("links not up before the blackout")
	}
	run(blackoutTo - int(now))
	if ra.CapturesFor("transport-los") != 1 || rz.CapturesFor("transport-los") != 1 {
		t.Fatalf("transport-los captures a=%d z=%d, want 1 each",
			ra.CapturesFor("transport-los"), rz.CapturesFor("transport-los"))
	}

	// Restoration: liveness returns, the queued freeze ping flushes,
	// the follower adopts. Give it the retry budget plus slack.
	deadline := time.Now().Add(10 * time.Second)
	matched := func() (a, z *flight.Capture) {
		for _, c := range ra.Recent() {
			if c.Reason == "transport-los" {
				a = c
			}
		}
		for _, c := range rz.Recent() {
			if c.Reason == "transport-los" {
				z = c
			}
		}
		return a, z
	}
	var capA, capZ *flight.Capture
	for {
		capA, capZ = matched()
		if capA != nil && capZ != nil && capA.Incident != 0 && capZ.Incident != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("incident never correlated: a=%+v z=%+v", capA, capZ)
		}
		run(64)
	}
	if capA.Incident != capZ.Incident {
		t.Fatalf("incident IDs differ: a=%x z=%x", capA.Incident, capZ.Incident)
	}
	// Exactly one end minted (its capture has no peer context), the
	// other adopted the leader's trigger context; nobody re-pinged.
	if (capA.PeerNow != 0) == (capZ.PeerNow != 0) {
		t.Fatalf("want one minted + one adopted capture, got a.PeerNow=%d z.PeerNow=%d",
			capA.PeerNow, capZ.PeerNow)
	}
	if n := ra.CapturesFor("peer-freeze") + rz.CapturesFor("peer-freeze"); n != 0 {
		t.Fatalf("%d peer-freeze captures — the pair should have formed by adoption", n)
	}
	if ra.CapturesFor("transport-los") != 1 || rz.CapturesFor("transport-los") != 1 {
		t.Fatalf("transport-los counts grew: a=%d z=%d, want exactly 1 each",
			ra.CapturesFor("transport-los"), rz.CapturesFor("transport-los"))
	}

	// Recovery also restarts both supervisors at once — the crossed-ping
	// shape, where each end minted its own ID for the same symmetric
	// event. Those captures must converge onto one shared ID too instead
	// of spawning ping-pong peer-freeze dumps.
	run(512)
	var restA, restZ *flight.Capture
	for _, c := range ra.Recent() {
		if c.Reason == "supervisor-restart" {
			restA = c
		}
	}
	for _, c := range rz.Recent() {
		if c.Reason == "supervisor-restart" {
			restZ = c
		}
	}
	if restA != nil && restZ != nil {
		if restA.Incident == 0 || restA.Incident != restZ.Incident {
			t.Fatalf("crossed restart pings did not converge: a=%x z=%x",
				restA.Incident, restZ.Incident)
		}
	}
	if n := ra.CapturesFor("peer-freeze") + rz.CapturesFor("peer-freeze"); n != 0 {
		t.Fatalf("%d peer-freeze captures after restart convergence", n)
	}

	// The on-disk pair must match too: the follower's file is rewritten
	// in place at adoption.
	for _, c := range []*flight.Capture{capA, capZ} {
		onDisk, err := flight.ReadFile(c.Path)
		if err != nil {
			t.Fatalf("read %s: %v", c.Path, err)
		}
		if onDisk.Incident != capA.Incident {
			t.Fatalf("%s incident on disk = %x, want %x", c.Path, onDisk.Incident, capA.Incident)
		}
	}
}
