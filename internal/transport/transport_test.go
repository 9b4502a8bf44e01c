package transport

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"
)

// collect drives a transport's Recv until want chunks have arrived or
// the deadline passes, ticking both ends each poll (socket transports
// deliver from a reader goroutine).
func collect(t *testing.T, rx, tx LineTransport, want int, now *int64) [][]byte {
	t.Helper()
	var got [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d chunks", len(got), want)
		}
		*now++
		tx.Tick(*now)
		rx.Tick(*now)
		for _, c := range rx.Recv(nil) {
			got = append(got, append([]byte(nil), c...))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return got
}

func TestPipePairExchange(t *testing.T) {
	a, z := NewPipePair()
	defer a.Close()
	defer z.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	got := z.Recv(nil)
	if len(got) != 10 {
		t.Fatalf("got %d chunks, want 10", len(got))
	}
	for i, c := range got {
		if !bytes.Equal(c, []byte{byte(i), byte(i + 1)}) {
			t.Fatalf("chunk %d: %x", i, c)
		}
	}
	st := a.Stats()
	if st.TxChunks != 10 || st.TxBytes != 20 {
		t.Fatalf("a stats: %+v", st)
	}
	if st := z.Stats(); st.RxChunks != 10 || st.RxBytes != 20 {
		t.Fatalf("z stats: %+v", st)
	}
}

// TestPipeClosedEndDeliversNothing: Send on a closed end fails before
// it touches the peer, as UDP and TCP do, so the sender's TxChunks and
// the peer's RxChunks never disagree; the open end's sends to it are
// dropped and counted.
func TestPipeClosedEndDeliversNothing(t *testing.T) {
	a, z := NewPipePair()
	a.Close()
	if err := a.Send([]byte{1, 2, 3}); err != ErrClosed {
		t.Fatalf("Send on a closed end = %v, want ErrClosed", err)
	}
	if got := z.Recv(nil); len(got) != 0 {
		t.Fatalf("peer received %d chunks from a closed end", len(got))
	}
	if st := z.Stats(); st.RxChunks != 0 || st.RxBytes != 0 {
		t.Fatalf("peer stats after a closed end's send: %+v", st)
	}
	if st := a.Stats(); st.TxChunks != 0 || st.TxDropped != 0 {
		t.Fatalf("closed end's stats: %+v", st)
	}
	if err := z.Send([]byte{4}); err != nil {
		t.Fatalf("Send to a closed peer = %v, want a silent drop", err)
	}
	if st := z.Stats(); st.TxChunks != 0 || st.TxDropped != 1 {
		t.Fatalf("open end's stats after sending to a closed peer: %+v", st)
	}
	if got := a.Recv(nil); len(got) != 0 {
		t.Fatalf("closed end received %d chunks", len(got))
	}
	if a.Up() || !z.Up() {
		t.Fatalf("Up: closed end %t, open end %t", a.Up(), z.Up())
	}
}

func TestUDPPairExchange(t *testing.T) {
	cfg := Config{}
	ln, err := NewUDP(UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dl, err := NewUDP(UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()

	now := int64(0)
	for i := 0; i < 20; i++ {
		if err := dl.Send([]byte(fmt.Sprintf("chunk-%02d", i))); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	got := collect(t, ln, dl, 20, &now)
	for i, c := range got {
		if want := fmt.Sprintf("chunk-%02d", i); string(c) != want {
			t.Fatalf("chunk %d: %q, want %q", i, c, want)
		}
	}

	// The listener latched the dialer: the reverse path works too.
	for i := 0; i < 5; i++ {
		ln.Send([]byte("pong"))
	}
	back := collect(t, dl, ln, 5, &now)
	if string(back[0]) != "pong" {
		t.Fatalf("reverse chunk: %q", back[0])
	}
}

func TestUDPKeepaliveDeadPeer(t *testing.T) {
	cfg := Config{KeepalivePeriod: 4, KeepaliveMisses: 2}
	ln, err := NewUDP(UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dl, err := NewUDP(UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}

	now := int64(0)
	dl.Send([]byte("hello"))
	collect(t, ln, dl, 1, &now)
	if !ln.Up() {
		t.Fatal("listener not up after traffic")
	}

	// Kill the dialer: the listener's keepalive gives up within
	// KeepalivePeriod*(KeepaliveMisses+1) silent ticks.
	dl.Close()
	for i := 0; i < 4*(2+2); i++ {
		now++
		ln.Tick(now)
	}
	if ln.Up() {
		t.Fatal("listener still up across a dead peer")
	}
	st := ln.Stats()
	if st.KeepaliveMisses == 0 || st.Resets == 0 {
		t.Fatalf("stats after dead peer: %+v", st)
	}
}

func TestUDPDialerEpochResetReconnects(t *testing.T) {
	cfg := Config{}
	ln, err := NewUDP(UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	now := int64(0)
	d1, err := NewUDP(UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	d1.Send([]byte("first"))
	collect(t, ln, d1, 1, &now)
	d1.Close()

	// A restarted dialer has a fresh epoch and restarts seq at 1; the
	// listener must re-latch instead of discarding the "stale" seq.
	d2, err := NewUDP(UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	d2.Send([]byte("second"))
	got := collect(t, ln, d2, 1, &now)
	if string(got[0]) != "second" {
		t.Fatalf("after peer restart got %q", got[0])
	}
	if st := ln.Stats(); st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
}

func TestTCPPairExchange(t *testing.T) {
	cfg := Config{}
	ln, err := NewTCP(TCPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dl, err := NewTCP(TCPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()

	now := int64(0)
	deadline := time.Now().Add(5 * time.Second)
	for !dl.Up() {
		if time.Now().After(deadline) {
			t.Fatal("dialer never connected")
		}
		now++
		dl.Tick(now)
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		dl.Send([]byte(fmt.Sprintf("stream-%02d", i)))
	}
	got := collect(t, ln, dl, 20, &now)
	for i, c := range got {
		if want := fmt.Sprintf("stream-%02d", i); string(c) != want {
			t.Fatalf("chunk %d: %q, want %q", i, c, want)
		}
	}
	ln.Send([]byte("pong"))
	back := collect(t, dl, ln, 1, &now)
	if string(back[0]) != "pong" {
		t.Fatalf("reverse chunk: %q", back[0])
	}
}

func TestTCPRedialAfterReset(t *testing.T) {
	cfg := Config{RetryMin: 1, RetryMax: 4}
	ln, err := NewTCP(TCPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dl, err := NewTCP(TCPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()

	now := int64(0)
	dl.Send([]byte("before"))
	collect(t, ln, dl, 1, &now)

	// Sever the server-side connection; the dialer must notice the
	// read failure and re-dial on its backoff schedule.
	ln.mu.Lock()
	c := ln.conn
	ln.mu.Unlock()
	c.Close()

	// First the dialer must notice the failure (reader EOF), then
	// re-dial on its backoff schedule.
	deadline := time.Now().Add(5 * time.Second)
	for dl.Stats().Resets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dialer never noticed the reset")
		}
		now++
		dl.Tick(now)
		time.Sleep(time.Millisecond)
	}
	for !dl.Up() {
		if time.Now().After(deadline) {
			t.Fatal("dialer never re-dialed")
		}
		now++
		dl.Tick(now)
		ln.Tick(now)
		time.Sleep(time.Millisecond)
	}
	if err := dl.Send([]byte("after")); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
	if got := collect(t, ln, dl, 1, &now); string(got[0]) != "after" {
		t.Fatalf("after redial got %q", got[0])
	}
}

// TestTCPDialsOnceUntilInstalled parks the dialer's first connect
// between the connect and install (the test holds the lock install
// needs), then Ticks as fast as it can while the dial completes: no
// Tick may start a second dial, or the listener keeps the newest
// connection it accepted while the dialer keeps the last one it
// installed, and each end closes the one the other kept.
func TestTCPDialsOnceUntilInstalled(t *testing.T) {
	cfg := Config{RetryMin: 1, RetryMax: 4}
	ln, err := NewTCP(TCPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dl, err := NewTCP(TCPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()

	locked := func(tr *TCP, f func() bool) bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return f()
	}
	deadline := time.Now().Add(5 * time.Second)
	dl.mu.Lock()
	dl.dialing = true // as Tick does before it starts a dial
	go dl.dial()
	for !locked(ln, func() bool { return ln.connected }) {
		if time.Now().After(deadline) {
			dl.mu.Unlock()
			t.Fatal("listener never accepted the dial")
		}
		time.Sleep(100 * time.Microsecond)
	}
	dl.mu.Unlock()
	now := int64(0)
	for !locked(dl, func() bool { return dl.connected && !dl.dialing }) {
		if time.Now().After(deadline) {
			t.Fatal("dialer never installed its connection")
		}
		now++
		dl.Tick(now)
	}
	// A second dial, had one started, is accepted within a few ms.
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		now++
		dl.Tick(now)
		ln.Tick(now)
		time.Sleep(100 * time.Microsecond)
	}
	dl.mu.Lock()
	ln.mu.Lock()
	dlGen, lnGen := dl.connGen, ln.connGen
	same := dl.conn != nil && ln.conn != nil && dl.conn.LocalAddr().String() == ln.conn.RemoteAddr().String()
	ln.mu.Unlock()
	dl.mu.Unlock()
	if dlGen != 1 || lnGen != 1 || !same {
		t.Fatalf("dialer installed %d connections, listener %d; same connection on both ends: %v", dlGen, lnGen, same)
	}
	dl.Send([]byte("once"))
	if got := collect(t, ln, dl, 1, &now); string(got[0]) != "once" {
		t.Fatalf("got %q", got[0])
	}
}

func TestChunkQueueDropsOldest(t *testing.T) {
	q := chunkQueue{limit: 3}
	for i := 0; i < 5; i++ {
		q.push([]byte{byte(i)})
	}
	if q.dropped != 2 || len(q.bufs) != 3 {
		t.Fatalf("dropped=%d depth=%d", q.dropped, len(q.bufs))
	}
	got := q.drainInto(nil, 0)
	if len(got) != 3 || got[0][0] != 2 || got[2][0] != 4 {
		t.Fatalf("drain after overflow: %v", got)
	}
	if q.highWater != 3 {
		t.Fatalf("highWater=%d, want 3", q.highWater)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	cfg := Config{RetryMin: 8, RetryMax: 64, JitterSeed: 12345}
	b := newBackoff(cfg)
	expect := []int64{8, 16, 32, 64, 64, 64}
	var varied bool
	for i, base := range expect {
		d := b.next()
		lo, hi := base*80/100, base*120/100
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %d outside [%d,%d]", i, d, lo, hi)
		}
		if d != base {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never moved a delay off its base value")
	}
	b.reset()
	if d := b.next(); d > 8*120/100 {
		t.Fatalf("post-reset delay %d not back at RetryMin scale", d)
	}
}

// TestUDPSeqDedup crafts raw wire datagrams — duplicated and reordered
// at the socket, after sequence stamping — and asserts the receiver
// delivers only the in-order subset: the defense that keeps a chaotic
// network from splicing stale octets into the HDLC stream.
func TestUDPSeqDedup(t *testing.T) {
	ln, err := NewUDP(UDPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := net.Dial("udp", ln.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	const epoch = 0xBEEF
	send := func(seq uint64, payload string) {
		b := AppendHeader(nil, TypeData, len(payload), epoch, seq, 0, 0)
		b = append(b, payload...)
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	// seq 1, 2, 2 (dup), 4, 3 (reordered behind 4), 5.
	for _, m := range []struct {
		seq uint64
		p   string
	}{{1, "s1"}, {2, "s2"}, {2, "s2-dup"}, {4, "s4"}, {3, "s3-stale"}, {5, "s5"}} {
		send(m.seq, m.p)
	}

	now := int64(0)
	var got [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/4 chunks: %q", len(got), got)
		}
		now++
		ln.Tick(now)
		for _, c := range ln.Recv(nil) {
			got = append(got, append([]byte(nil), c...))
		}
		time.Sleep(100 * time.Microsecond)
	}
	want := []string{"s1", "s2", "s4", "s5"}
	for i, c := range got {
		if string(c) != want[i] {
			t.Fatalf("delivered %q, want %v", got, want)
		}
	}
	// Give the stale datagrams time to land, then confirm they stayed
	// dropped rather than late-delivered.
	time.Sleep(10 * time.Millisecond)
	ln.Tick(now + 1)
	if extra := ln.Recv(nil); len(extra) != 0 {
		t.Fatalf("stale datagrams delivered late: %q", extra)
	}
	if st := ln.Stats(); st.RxDropped != 2 {
		t.Fatalf("RxDropped = %d, want 2 (one dup, one stale)", st.RxDropped)
	}
}

// TestUDPBadVersionRejected: a datagram carrying an unknown wire
// version is counted and dropped without latching the sender as a live
// peer — the clean failure mode for version skew across a fleet.
func TestUDPBadVersionRejected(t *testing.T) {
	ln, err := NewUDP(UDPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := net.Dial("udp", ln.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	b := AppendHeader(nil, TypeData, 2, 1, 1, 0, 0)
	b[4] = 1 // the v1 header a stale peer would send
	b = append(b, 'h', 'i')
	if _, err := raw.Write(b); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ln.Stats().RxBadVersion == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad-version datagram never counted")
		}
		ln.Tick(0)
		time.Sleep(100 * time.Microsecond)
	}
	st := ln.Stats()
	if st.RxBadVersion != 1 || st.RxDropped != 1 {
		t.Fatalf("stats after version skew: %+v", st)
	}
	if ln.Up() || len(ln.Recv(nil)) != 0 {
		t.Fatal("skewed peer latched as alive")
	}
}

// sockLine is what the transport-independent socket tests need of an
// endpoint: the line contract plus the latency and freeze channels.
type sockLine interface {
	LineTransport
	LatencyMeter
	Freezer
}

// sockPairs opens a connected loopback listener/dialer pair per socket
// transport, for the tests whose assertions do not depend on which one
// carries the records. now is the pair's tick clock.
var sockPairs = []struct {
	name string
	open func(t *testing.T, cfg Config, now *int64) (ln, dl sockLine)
}{{"udp", udpSockPair}, {"tcp", tcpSockPair}}

func udpSockPair(t *testing.T, cfg Config, now *int64) (sockLine, sockLine) {
	ln, err := NewUDP(UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dl, err := NewUDP(UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close() })
	return ln, dl
}

func tcpSockPair(t *testing.T, cfg Config, now *int64) (sockLine, sockLine) {
	ln, err := NewTCP(TCPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dl, err := NewTCP(TCPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close() })
	tickUntil(t, now, "dialer never connected", dl.Up, dl)
	return ln, dl
}

// tickUntil ticks the given transports until cond holds, failing with
// msg after five seconds.
func tickUntil(t *testing.T, now *int64, msg string, cond func() bool, ts ...LineTransport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		*now++
		for _, tr := range ts {
			tr.Tick(*now)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLatencyExchange drives a real loopback pair and asserts the
// latency meter fills from both channels: one-way samples from sampled
// wall stamps on data chunks, RTT samples from the keepalive
// probe/reply exchange.
func TestLatencyExchange(t *testing.T) {
	for _, tr := range sockPairs {
		t.Run(tr.name, func(t *testing.T) {
			now := int64(0)
			ln, dl := tr.open(t, Config{KeepalivePeriod: 2, LatencySampleShift: 1}, &now)
			for i := 0; i < 16; i++ {
				dl.Send([]byte("tick"))
			}
			collect(t, ln, dl, 16, &now)
			if lat := ln.Latency(); lat.Samples == 0 {
				t.Fatalf("no one-way samples after 16 stamped chunks: %+v", lat)
			}

			// Reverse traffic marks the dialer's peer alive, after which its
			// keepalive probes (wall-stamped) earn RTT samples from replies.
			ln.Send([]byte("back"))
			collect(t, dl, ln, 1, &now)
			tickUntil(t, &now, "no RTT samples", func() bool { return dl.Latency().RTTSamples != 0 }, dl, ln)
			lat := dl.Latency()
			if lat.ClockOffsetNS > 1e9 || lat.ClockOffsetNS < -1e9 {
				t.Fatalf("loopback clock offset estimate off by >1s: %+v", lat)
			}
		})
	}
}

// TestFreezeExchange: a freeze ping queued on one end surfaces on the
// peer exactly once — retransmissions are deduplicated by incident.
func TestFreezeExchange(t *testing.T) {
	for _, tr := range sockPairs {
		t.Run(tr.name, func(t *testing.T) {
			cfg := Config{KeepalivePeriod: 2}
			now := int64(0)
			ln, dl := tr.open(t, cfg, &now)

			// Two-way traffic so both ends see a live peer.
			dl.Send([]byte("fwd"))
			collect(t, ln, dl, 1, &now)
			ln.Send([]byte("rev"))
			collect(t, dl, ln, 1, &now)

			want := FreezeInfo{Incident: 0xC0FFEE, Reason: "transport-los", Tick: 41, WallNs: 1234}
			dl.SendFreeze(want)
			var got []FreezeInfo
			tickUntil(t, &now, "freeze never arrived", func() bool {
				got = ln.Freezes(got)
				return len(got) != 0
			}, dl, ln)
			if got[0] != want {
				t.Fatalf("freeze round trip: got %+v, want %+v", got[0], want)
			}
			// Let every retransmission land; dedup must keep the count at one.
			for i := 0; i < 4*int(cfg.KeepalivePeriod)+4; i++ {
				now++
				dl.Tick(now)
				ln.Tick(now)
				time.Sleep(100 * time.Microsecond)
			}
			if extra := ln.Freezes(nil); len(extra) != 0 {
				t.Fatalf("retransmitted freeze delivered twice: %+v", extra)
			}
			if len(got) != 1 {
				t.Fatalf("freeze count %d, want 1", len(got))
			}
		})
	}
}

// TestTCPSilentPeerRedial: a connection that stays open while the peer
// goes silent — here a muted listener, which neither writes nor counts
// what it reads — must not be trusted forever. The dialer's keepalive
// runs out of misses, drops the connection and re-dials; when the mute
// lifts, the replacement connection carries data again.
func TestTCPSilentPeerRedial(t *testing.T) {
	cfg := Config{KeepalivePeriod: 4, KeepaliveMisses: 2, RetryMin: 1, RetryMax: 4}
	now := int64(0)
	ln, dl := tcpSockPair(t, cfg, &now)
	dl.Send([]byte("before"))
	collect(t, ln, dl, 1, &now)

	ln.(Muter).Mute(true)
	tickUntil(t, &now, "dialer never gave up on the silent peer and re-dialed", func() bool {
		st := dl.Stats()
		return st.Resets > 0 && st.Reconnects > 0
	}, dl, ln)
	if st := dl.Stats(); st.KeepaliveMisses < 2 {
		t.Fatalf("give-up without the configured misses: %+v", st)
	}

	ln.(Muter).Mute(false)
	tickUntil(t, &now, "dialer not up after the mute lifted", dl.Up, dl, ln)
	dl.Send([]byte("after"))
	if got := collect(t, ln, dl, 1, &now); string(got[0]) != "after" {
		t.Fatalf("after the silent window got %q", got[0])
	}
}

// TestCorrelationLeader pins the freeze leader election: higher epoch
// wins, the listener breaks ties, and an end that never heard a peer
// epoch leads by default.
func TestCorrelationLeader(t *testing.T) {
	cases := []struct {
		local, peer        uint32
		gotEpoch, listener bool
		want               bool
	}{
		{5, 3, true, false, true},  // higher epoch leads
		{3, 5, true, true, false},  // lower epoch follows even as listener
		{7, 7, true, true, true},   // tie: listener leads
		{7, 7, true, false, false}, // tie: dialer follows
		{1, 9, false, false, true}, // no peer epoch yet: lead
	}
	for i, tc := range cases {
		if got := leader(tc.local, tc.peer, tc.gotEpoch, tc.listener); got != tc.want {
			t.Errorf("case %d (%+v): leader = %v", i, tc, got)
		}
	}
}

// TestMeterEstimates pins the meter arithmetic against hand-computed
// NTP timestamps: RTT excludes peer hold time, the first offset sample
// seeds the EWMA, and the tick offset is a max-filter.
func TestMeterEstimates(t *testing.T) {
	m := newMeter(1)
	if !m.stampWall(2) || m.stampWall(3) {
		t.Fatal("sample mask wrong for shift 1")
	}
	// t1=0 t2=600µs t3=700µs t4=300µs: RTT = 300µs - 100µs hold = 200µs,
	// offset θ = ((t2-t1)+(t3-t4))/2 = 500µs.
	m.noteReply(0, 600_000, 700_000, 300_000)
	lat := m.latency()
	if lat.RTTSamples != 1 || lat.ClockOffsetNS != 500_000 {
		t.Fatalf("after reply: %+v", lat)
	}
	if lat.RTTP50US != 250 {
		t.Fatalf("RTT p50 bucket = %d, want 250 (200µs sample)", lat.RTTP50US)
	}
	// One-way: rx-tx = -400µs, corrected by the +500µs offset to 100µs.
	m.noteData(1_000_000, 600_000)
	lat = m.latency()
	if lat.Samples != 1 || lat.OneWayP50US != 100 {
		t.Fatalf("after data: %+v", lat)
	}
	m.noteTick(10, 3)
	m.noteTick(5, 3)
	if lat := m.latency(); lat.TickOffset != 7 {
		t.Fatalf("tick offset = %d, want max-filtered 7", lat.TickOffset)
	}
	// A zero wall stamp (unsampled chunk) must be ignored.
	m.noteData(0, 999)
	if lat := m.latency(); lat.Samples != 1 {
		t.Fatalf("unsampled chunk counted: %+v", lat)
	}
}
