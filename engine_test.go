package gigapos

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/prof"
	"repro/internal/telemetry"
)

// TestEngineSoak is the race gate: a multi-link engine with more links
// than shards, brought up and run long enough that every shard worker
// moves real traffic concurrently. Run it under -race.
//
// When SOAK_PROF_DIR is set the soak runs with the performance
// observatory armed: a prof.Session captures CPU/heap/mutex/block
// profiles into that directory (written even when the test fails — CI
// uploads them as artifacts on soak failure), and the engine's stage
// cost accounting runs alongside the race detector.
func TestEngineSoak(t *testing.T) {
	e := NewEngine(EngineConfig{
		Links:       8,
		Shards:      4,
		PayloadSize: 256,
		Batch:       4,
	})
	defer e.Close()
	reg := telemetry.NewRegistry()
	o := Observation{Registry: reg}
	if dir := os.Getenv("SOAK_PROF_DIR"); dir != "" {
		s, err := prof.StartSession(dir)
		if err != nil {
			t.Fatalf("SOAK_PROF_DIR=%s: %v", dir, err)
		}
		defer func() {
			files, err := s.Stop()
			if err != nil {
				t.Errorf("profile session stop: %v", err)
			}
			t.Logf("soak profiles: %d written to %s", len(files), dir)
		}()
		o.Profile = &prof.Config{}
	}
	e.Observe(o, "soak")

	if !e.BringUp(512).Ready {
		t.Fatalf("engine failed to negotiate: %v", e.String())
	}
	before := e.Stats()
	const steps = 500
	e.Run(steps)
	st := e.Stats()

	if st.Steps != before.Steps+steps {
		t.Fatalf("steps = %d, want %d", st.Steps, before.Steps+steps)
	}
	if st.RxErrors != 0 {
		t.Fatalf("rx errors on a clean loopback: %d", st.RxErrors)
	}
	delivered := st.Datagrams - before.Datagrams
	// 8 pairs x 2 directions x 4 datagrams per step, minus pipeline fill.
	want := uint64(8 * 2 * 4 * (steps - 2))
	if delivered < want {
		t.Fatalf("delivered %d datagrams, want >= %d", delivered, want)
	}
	if st.PayloadBytes-before.PayloadBytes != delivered*256 {
		t.Fatalf("payload bytes %d, want %d", st.PayloadBytes-before.PayloadBytes, delivered*256)
	}
	if st.LineBytes <= st.PayloadBytes {
		t.Fatalf("line bytes %d not above payload bytes %d (framing overhead missing)",
			st.LineBytes, st.PayloadBytes)
	}

	// The telemetry mirrors must match the aggregate snapshot.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	series, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	found := false
	for _, s := range series {
		if s.Name == "engine_datagrams_total" && s.Label("engine") == "soak" {
			found = true
			if uint64(s.Value) != st.Datagrams {
				t.Fatalf("telemetry datagrams %v, want %d", s.Value, st.Datagrams)
			}
		}
	}
	if !found {
		t.Fatal("engine_datagrams_total{engine=soak} not exported")
	}
}

// TestEngineShardPartition checks the link-to-shard mapping: every pair
// reachable through Port, every pair negotiated, shard count capped at
// the link count.
func TestEngineShardPartition(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 5, Shards: 3})
	defer e.Close()
	if got := len(e.shards); got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}
	if !e.BringUp(512).Ready {
		t.Fatal("engine failed to negotiate")
	}
	seen := map[*Link]bool{}
	for i := 0; i < 5; i++ {
		a, z := e.Port(i)
		if a == nil || z == nil || seen[a] || seen[z] {
			t.Fatalf("Port(%d) = %p,%p: nil or duplicate", i, a, z)
		}
		seen[a], seen[z] = true, true
		if !a.IPReady() || !z.IPReady() {
			t.Fatalf("Port(%d) not IP-ready", i)
		}
	}

	// Shards never exceed links.
	e2 := NewEngine(EngineConfig{Links: 2, Shards: 16})
	defer e2.Close()
	if got := len(e2.shards); got != 2 {
		t.Fatalf("shards = %d, want 2 (capped at links)", got)
	}
}

// newTestPair negotiates a plain loopback pair to IP-ready.
func newTestPair(t testing.TB, acfg, zcfg LinkConfig) (*Link, *Link) {
	t.Helper()
	if acfg.Magic == 0 {
		acfg.Magic, zcfg.Magic = 0x11112222, 0x33334444
	}
	if acfg.IPAddr == ([4]byte{}) {
		acfg.IPAddr = [4]byte{10, 0, 0, 1}
		zcfg.IPAddr = [4]byte{10, 0, 0, 2}
	}
	a, z := NewLink(acfg), NewLink(zcfg)
	a.Open()
	a.Up()
	z.Open()
	z.Up()
	for now := int64(1); now < 200; now++ {
		a.Advance(now)
		z.Advance(now)
		z.Input(a.Output())
		a.Input(z.Output())
		if a.IPReady() && z.IPReady() {
			return a, z
		}
	}
	t.Fatal("pair failed to negotiate")
	return nil, nil
}

// TestLinkSteadyStateZeroAlloc asserts the whole per-frame path —
// batch send, fused encode, output drain, tokenize, decode, receive
// drain — allocates nothing once warm, at the engine's shape (a few
// 512-octet datagrams) and at the min-size flood's (600 × 40 octets,
// where the batch's prepared Header and Input's latched config live on
// the stack or not at all). This is the invariant the engine's
// scale-out rests on.
func TestLinkSteadyStateZeroAlloc(t *testing.T) {
	for _, shape := range []struct{ frames, size int }{{4, 512}, {600, 40}} {
		a, z := newTestPair(t, LinkConfig{}, LinkConfig{})
		batch := make([][]byte, shape.frames)
		for i := range batch {
			batch[i] = bytes.Repeat([]byte{byte(i), 0x7E, 0x45, 0x00}, shape.size/4)
		}
		var rx []Datagram
		now := int64(1000)
		step := func() {
			now++
			a.Advance(now)
			z.Advance(now)
			if _, err := a.SendIPv4Batch(batch); err != nil {
				t.Fatalf("SendIPv4Batch: %v", err)
			}
			z.Input(a.Output())
			rx = z.ReceivedInto(rx[:0])
		}
		// Warm every buffer to steady-state capacity.
		for i := 0; i < 16; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("%d × %d octets: steady-state link step allocates %.1f times per run, want 0",
				shape.frames, shape.size, avg)
		}
		if len(rx) != len(batch) {
			t.Errorf("%d × %d octets: drained %d datagrams per step", shape.frames, shape.size, len(rx))
		}
	}
}

// TestReceivedSurvivesInput is the aliasing regression test: a drained
// datagram's payload must stay intact while the link keeps tokenizing
// new input into its recycled arena, and through the next drain. (The
// tokenizer recycles its buffer on every Feed; the link must have
// copied the payload out.)
func TestReceivedSurvivesInput(t *testing.T) {
	a, z := newTestPair(t, LinkConfig{}, LinkConfig{})

	mk := func(fill byte) []byte {
		p := make([]byte, 300)
		for i := range p {
			p[i] = fill
		}
		return p
	}
	send := func(p []byte) {
		if err := a.SendIPv4(p); err != nil {
			t.Fatalf("SendIPv4: %v", err)
		}
		z.Input(a.Output())
	}

	send(mk(0xAA))
	got := z.Received()
	if len(got) != 1 {
		t.Fatalf("received %d datagrams, want 1", len(got))
	}
	first := got[0].Payload
	want := mk(0xAA)
	if !bytes.Equal(first, want) {
		t.Fatal("payload wrong before any further input")
	}

	// Hammer the tokenizer arena with fresh frames: if Received
	// aliased it, first would now hold 0xBB bytes.
	for i := 0; i < 32; i++ {
		send(mk(0xBB))
	}
	if !bytes.Equal(first, want) {
		t.Fatal("drained payload corrupted by subsequent Input")
	}

	// The double-buffer contract: still intact after the NEXT drain...
	second := z.Received()
	if len(second) != 32 {
		t.Fatalf("second drain got %d datagrams, want 32", len(second))
	}
	if !bytes.Equal(first, want) {
		t.Fatal("drained payload corrupted by the next drain")
	}
	// ...and the second drain's payloads are good too.
	for i := range second {
		if !bytes.Equal(second[i].Payload, mk(0xBB)) {
			t.Fatalf("second drain payload %d corrupted", i)
		}
	}
}

// TestOutputDoubleBuffer pins the Output ownership rule: the drained
// slice stays intact while the link encodes more traffic, and is only
// recycled by the second-following drain.
func TestOutputDoubleBuffer(t *testing.T) {
	a, z := newTestPair(t, LinkConfig{}, LinkConfig{})
	if err := a.SendIPv4(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	first := a.Output()
	snap := append([]byte(nil), first...)

	if err := a.SendIPv4(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, snap) {
		t.Fatal("drained output corrupted by subsequent encoding")
	}
	second := a.Output()
	if !bytes.Equal(first, snap) {
		t.Fatal("drained output corrupted by the next drain")
	}
	z.Input(first)
	z.Input(second)
	if got := z.Received(); len(got) != 2 {
		t.Fatalf("peer decoded %d datagrams, want 2", len(got))
	}
}

// TestEngineReliableMode runs the engine over numbered-mode links: the
// RFC 1663 station, its free-list Release path and the go-back-N window
// all inside the sharded loop.
func TestEngineReliableMode(t *testing.T) {
	e := NewEngine(EngineConfig{
		Links:       2,
		Shards:      2,
		PayloadSize: 128,
		Batch:       2,
		Link:        LinkConfig{Reliable: true},
	})
	defer e.Close()
	if !e.BringUp(1024).Ready {
		t.Fatal("reliable engine failed to negotiate")
	}
	// Numbered mode needs SABM/UA after IPCP; give it a moment.
	e.Run(64)
	before := e.Stats()
	e.Run(256)
	st := e.Stats()
	if st.Datagrams <= before.Datagrams {
		t.Fatal("no datagrams delivered in numbered mode")
	}
	if st.RxErrors != 0 {
		t.Fatalf("rx errors on clean numbered loopback: %d", st.RxErrors)
	}
	a, _ := e.Port(0)
	if !stationUp(a) {
		t.Fatal("station not connected")
	}
	txI, rxI, _, _ := a.ReliableStats()
	if txI == 0 || rxI == 0 {
		t.Fatalf("numbered counters flat: txI=%d rxI=%d", txI, rxI)
	}
}
