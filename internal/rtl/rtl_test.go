package rtl

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

func TestFlitBytes(t *testing.T) {
	f := FlitOf([]byte{1, 2, 3, 4})
	if f.N != 4 || f.Byte(0) != 1 || f.Byte(3) != 4 {
		t.Errorf("flit = %+v", f)
	}
	f.SetByte(2, 0xAA)
	if f.Byte(2) != 0xAA || f.Byte(1) != 2 || f.Byte(3) != 4 {
		t.Errorf("SetByte clobbered lanes: %+v", f)
	}
	got := f.Bytes(nil)
	if !bytes.Equal(got, []byte{1, 2, 0xAA, 4}) {
		t.Errorf("Bytes = % x", got)
	}
}

func TestFlitOfTruncates(t *testing.T) {
	f := FlitOf(bytes.Repeat([]byte{9}, 12))
	if f.N != 8 {
		t.Errorf("N = %d, want 8", f.N)
	}
}

func TestFlitRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > 8 {
			p = p[:8]
		}
		if len(p) == 0 {
			return true
		}
		return bytes.Equal(FlitOf(p).Bytes(nil), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireHandshake(t *testing.T) {
	var w Wire
	if _, ok := w.Take(); ok {
		t.Error("take from empty wire")
	}
	if !w.CanPush() {
		t.Error("empty wire must accept push")
	}
	w.Push(FlitOf([]byte{1}))
	if w.CanPush() {
		t.Error("double push in one cycle must be refused")
	}
	if _, ok := w.Peek(); ok {
		t.Error("pushed flit visible before tick")
	}
	w.Tick()
	f, ok := w.Peek()
	if !ok || f.Byte(0) != 1 {
		t.Error("flit not visible after tick")
	}
	// Not consumed: producer must stall.
	if w.CanPush() {
		t.Error("occupied wire must refuse push")
	}
	if w.Stalls != 1 {
		t.Errorf("Stalls = %d", w.Stalls)
	}
	// Consume, then push is allowed again in the same cycle.
	if _, ok := w.Take(); !ok {
		t.Error("take failed")
	}
	if !w.CanPush() {
		t.Error("vacating wire must accept push")
	}
	w.Push(FlitOf([]byte{2}))
	w.Tick()
	f, _ = w.Take()
	if f.Byte(0) != 2 {
		t.Error("second flit lost")
	}
	if w.Transfers != 2 {
		t.Errorf("Transfers = %d", w.Transfers)
	}
}

func TestWirePushPanicsWhenBlocked(t *testing.T) {
	var w Wire
	w.Push(FlitOf([]byte{1}))
	w.Tick()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.Push(FlitOf([]byte{2}))
}

// passthrough copies input to output, used to build deep pipelines.
type passthrough struct{ in, out *Wire }

func (p *passthrough) Eval() {
	if _, ok := p.in.Peek(); !ok {
		return
	}
	if !p.out.CanPush() {
		return
	}
	f, _ := p.in.Take()
	p.out.Push(f)
}

func TestPipelineLatencyAndThroughput(t *testing.T) {
	// N passthrough stages = N+1 wires = N+1 cycles of latency, and
	// sustained 1 flit/cycle afterwards.
	const stages = 4
	var sim Sim
	src := &Source{Out: sim.Wire("w0")}
	sim.Add(src)
	prev := src.Out
	for i := 0; i < stages; i++ {
		next := sim.Wire("w")
		sim.Add(&passthrough{in: prev, out: next})
		prev = next
	}
	sink := NewSink(prev)
	sim.Add(sink)

	const n = 100
	for i := 0; i < n; i++ {
		src.Feed(FlitOf([]byte{byte(i)}))
	}
	// First flit: pushed at cycle 0, visible on w0 at cycle 1, ...
	// visible on w_stages at cycle stages+1.
	sim.RunUntil(func() bool { return len(sink.Flits) > 0 }, 1000)
	if sink.FirstCycle != stages+1 {
		t.Errorf("first output at cycle %d, want %d", sink.FirstCycle, stages+1)
	}
	sim.RunUntil(func() bool { return len(sink.Flits) == n }, 1000)
	// Total time = fill latency + n-1 further cycles (full throughput).
	if got, want := sim.Now(), int64(stages+1+n); got > want+1 {
		t.Errorf("drained at cycle %d, want ~%d (1 flit/cycle)", got, want)
	}
	for i := range sink.Flits {
		if sink.Flits[i].Byte(0) != byte(i) {
			t.Fatalf("flit %d out of order", i)
		}
	}
}

// throttle consumes only once every k cycles — a slow sink that must
// backpressure the pipeline.
type throttle struct {
	in, out *Wire
	k       int
	c       int
}

func (th *throttle) Eval() {
	th.c++
	if th.c%th.k != 0 {
		return
	}
	if _, ok := th.in.Peek(); !ok {
		return
	}
	if !th.out.CanPush() {
		return
	}
	f, _ := th.in.Take()
	th.out.Push(f)
}

func TestBackpressurePropagates(t *testing.T) {
	var sim Sim
	src := &Source{Out: sim.Wire("w0")}
	w1 := sim.Wire("w1")
	w2 := sim.Wire("w2")
	sim.Add(src, &passthrough{in: src.Out, out: w1}, &throttle{in: w1, out: w2, k: 3})
	sink := NewSink(w2)
	sim.Add(sink)

	const n = 30
	for i := 0; i < n; i++ {
		src.Feed(FlitOf([]byte{byte(i)}))
	}
	sim.RunUntil(func() bool { return len(sink.Flits) == n }, 10000)
	if len(sink.Flits) != n {
		t.Fatalf("only %d flits arrived", len(sink.Flits))
	}
	// The source must have been stalled by upstream-propagated pressure.
	if src.StallCycles == 0 {
		t.Error("no backpressure reached the source")
	}
	if src.Out.Stalls == 0 {
		t.Error("no stalls recorded on the source wire")
	}
	// No flit lost or reordered.
	for i := range sink.Flits {
		if sink.Flits[i].Byte(0) != byte(i) {
			t.Fatalf("flit %d out of order", i)
		}
	}
}

func TestSourceFeedBytes(t *testing.T) {
	var sim Sim
	src := &Source{Out: sim.Wire("w")}
	sink := NewSink(src.Out)
	sim.Add(src, sink)
	src.FeedBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && sim.Drained() }, 100)
	if len(sink.Flits) != 3 {
		t.Fatalf("flits = %d, want 3", len(sink.Flits))
	}
	if !sink.Flits[0].SOF || sink.Flits[0].EOF {
		t.Error("first flit markers")
	}
	if !sink.Flits[2].EOF || sink.Flits[2].N != 1 {
		t.Errorf("last flit = %+v", sink.Flits[2])
	}
	if !bytes.Equal(sink.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("data = % x", sink.Data)
	}
}

func TestSimDrained(t *testing.T) {
	var sim Sim
	w := sim.Wire("w")
	if !sim.Drained() {
		t.Error("fresh sim not drained")
	}
	w.Push(FlitOf([]byte{1}))
	if sim.Drained() {
		t.Error("pending push must count as in flight")
	}
	sim.Cycle()
	if sim.Drained() {
		t.Error("standing flit must count as in flight")
	}
	w.Take()
	sim.Cycle()
	if !sim.Drained() {
		t.Error("consumed wire must drain")
	}
}

func TestVCDDump(t *testing.T) {
	var sim Sim
	src := &Source{Out: sim.Wire("w")}
	sink := NewSink(src.Out)
	sim.Add(src, sink)

	var buf bytes.Buffer
	vcd := NewVCD(&buf)
	vcd.WatchWire("line", src.Out, 4)
	occ := 0
	vcd.Watch("occupancy", 8, func() (uint64, bool) { return uint64(occ), true })

	src.FeedBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	for i := 0; i < 6; i++ {
		sim.Cycle()
		occ = i
		vcd.Sample(sim.Now())
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale", "$var wire 32 ! line.data $end",
		"$var wire 1 \" line.valid $end", "$enddefinitions", "#1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// The first data word 0x04030201 must appear in binary.
	if !strings.Contains(out, fmt.Sprintf("b%b !", 0x04030201)) {
		t.Errorf("first word value missing:\n%s", out)
	}
	// Unknown marker after the stream drains.
	if !strings.Contains(out, "bx !") {
		t.Errorf("no x state after drain:\n%s", out)
	}
	// Change-only encoding: occupancy value 3 appears exactly once.
	if strings.Count(out, "b11 #") != 1 {
		t.Errorf("occupancy not change-encoded:\n%s", out)
	}
}

func TestWireOccupiedCounts(t *testing.T) {
	var w Wire
	w.Push(FlitOf([]byte{1}))
	w.Tick() // flit latched: occupied
	w.Tick() // still standing: occupied again
	w.Take()
	w.Tick() // vacated at the edge: not occupied
	if w.Occupied != 2 {
		t.Errorf("Occupied = %d, want 2", w.Occupied)
	}
}

func TestSinkGapHistogram(t *testing.T) {
	// Throttle at k=3: words arrive every 3rd cycle, so every
	// inter-word gap is 3 and LastCycle tracks the final arrival.
	var sim Sim
	src := &Source{Out: sim.Wire("w0")}
	w1 := sim.Wire("w1")
	sim.Add(src, &throttle{in: src.Out, out: w1, k: 3})
	sink := NewSink(w1)
	sim.Add(sink)

	const n = 10
	for i := 0; i < n; i++ {
		src.Feed(FlitOf([]byte{byte(i)}))
	}
	sim.RunUntil(func() bool { return len(sink.Flits) == n }, 1000)
	if len(sink.Flits) != n {
		t.Fatalf("only %d flits arrived", len(sink.Flits))
	}
	if sink.LastCycle <= sink.FirstCycle {
		t.Errorf("LastCycle = %d, FirstCycle = %d", sink.LastCycle, sink.FirstCycle)
	}
	if sink.GapCounts[3] != n-1 {
		t.Errorf("GapCounts = %v, want %d gaps of 3", sink.GapCounts, n-1)
	}
	if sink.MaxGap != 3 {
		t.Errorf("MaxGap = %d, want 3", sink.MaxGap)
	}
}

func TestSinkGapOverflowBucket(t *testing.T) {
	var sim Sim
	src := &Source{Out: sim.Wire("w")}
	sink := NewSink(src.Out)
	sim.Add(src, sink)
	src.Feed(FlitOf([]byte{1}))
	for i := 0; i < 20; i++ { // first word arrives, then a long idle gap
		sim.Cycle()
	}
	src.Feed(FlitOf([]byte{2}))
	sim.RunUntil(func() bool { return len(sink.Flits) == 2 }, 100)
	if sink.GapCounts[8] != 1 {
		t.Errorf("GapCounts = %v, want the long gap in the overflow bucket", sink.GapCounts)
	}
	if sink.MaxGap < 9 {
		t.Errorf("MaxGap = %d, want >8", sink.MaxGap)
	}
}

func TestSimInstrument(t *testing.T) {
	var sim Sim
	src := &Source{Out: sim.Wire("w0")}
	w1 := sim.Wire("w1")
	w2 := sim.Wire("w2")
	sim.Add(src, &passthrough{in: src.Out, out: w1}, &throttle{in: w1, out: w2, k: 3})
	sink := NewSink(w2)
	sim.Add(sink)

	reg := telemetry.NewRegistry()
	m := reg.Mirror()
	sim.Instrument(m)
	sim.WatchBusy("p5_unit_busy_cycles_total", "", func() bool { return src.Pending() > 0 }, telemetry.L("unit", "source"))

	const n = 30
	for i := 0; i < n; i++ {
		src.Feed(FlitOf([]byte{byte(i)}))
	}
	sim.RunUntil(func() bool { return len(sink.Flits) == n }, 10000)
	m.Sync()

	snap := seriesValues(reg)
	mustGet := func(series string) float64 {
		v, ok := snap[series]
		if !ok {
			t.Fatalf("series %s missing; have %v", series, snap)
		}
		return v
	}
	if v := mustGet("p5_cycles_total"); int64(v) != sim.Now() {
		t.Errorf("cycles = %v, want %d", v, sim.Now())
	}
	if v := mustGet(`p5_wire_transfers_total{wire="w2"}`); v != n {
		t.Errorf("w2 transfers = %v, want %d", v, n)
	}
	// The throttle backpressures w1 — stalls must be visible.
	if v := mustGet(`p5_wire_stalls_total{wire="w1"}`); v == 0 {
		t.Error("no stalls exported for the throttled wire")
	}
	if v := mustGet(`p5_wire_occupied_cycles_total{wire="w1"}`); v == 0 {
		t.Error("no occupancy exported")
	}
	if v := mustGet(`p5_unit_busy_cycles_total{unit="source"}`); v == 0 {
		t.Error("busy watch never sampled busy")
	}
}

// refCycle is the kernel as it was before the schedule was built once:
// every clock walks every module twice through the interface, asking each
// again whether it has a Tick. It is the oracle Sim.Cycle is held to.
func refCycle(s *Sim) {
	for i := len(s.modules) - 1; i >= 0; i-- {
		s.modules[i].Eval()
	}
	for _, m := range s.modules {
		if c, ok := m.(clocked); ok {
			c.Tick()
		}
	}
	for _, w := range s.wires {
		w.Tick()
	}
	s.cycle++
	for _, bw := range s.watches {
		if bw.busy() {
			bw.cycles++
		}
	}
}

// gate is a pass-through stage that is ready only on some cycles, drawn
// from its own seeded stream. With merge set it packs two narrow flits
// into one word when their lanes fit, as a byte sorter's output does.
type gate struct {
	in, out *Wire
	rng     *rand.Rand
	ready   float64
	merge   bool
	held    Flit
	holding bool
}

func (g *gate) Eval() {
	if g.rng.Float64() >= g.ready {
		return
	}
	f, ok := g.in.Peek()
	switch {
	case !ok && !g.holding:
	case !ok: // input paused: flush the held half-word
		if g.out.CanPush() {
			g.out.Push(g.held)
			g.holding = false
		}
	case g.merge && !g.holding:
		g.in.Take()
		g.held, g.holding = f, true
	case g.holding && g.held.N+f.N <= 8:
		if g.out.CanPush() {
			g.in.Take()
			g.held.Data |= f.Data << (8 * uint(g.held.N))
			g.held.N += f.N
			g.out.Push(g.held)
			g.holding = false
		}
	case g.holding:
		if g.out.CanPush() {
			g.out.Push(g.held)
			g.holding = false
		}
	default:
		if g.out.CanPush() {
			g.in.Take()
			g.out.Push(f)
		}
	}
}

// clockedGate is a gate with clocked state of its own: it is shut every
// k-th cycle by a counter only its Tick advances, so a kernel that drops
// or doubles a Tick shifts everything downstream of it.
type clockedGate struct {
	gate
	k, cycle int
}

func (c *clockedGate) Eval() {
	if c.cycle%c.k != 0 {
		c.gate.Eval()
	}
}
func (c *clockedGate) Tick() { c.cycle++ }

// randomPipeline builds Source → 1–6 gates → Sink from seed and loads the
// source. The sink is returned unregistered: the caller adds it after the
// first clock, so the schedule must also take a late Add.
func randomPipeline(seed int64) (*Sim, *Source, *Sink) {
	rng := rand.New(rand.NewSource(seed))
	sim := &Sim{}
	src := &Source{Out: sim.Wire("w0")}
	sim.Add(src)
	prev := src.Out
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		next := sim.Wire(fmt.Sprintf("w%d", i+1))
		g := gate{in: prev, out: next, rng: rand.New(rand.NewSource(rng.Int63())),
			ready: 0.4 + 0.6*rng.Float64(), merge: rng.Intn(3) == 0}
		if rng.Intn(2) == 0 {
			sim.Add(&clockedGate{gate: g, k: 2 + rng.Intn(4)})
		} else {
			sim.Add(&g)
		}
		prev = next
	}
	for i := 0; i < 200; i++ {
		p := make([]byte, 1+rng.Intn(8))
		rng.Read(p)
		src.Feed(FlitOf(p))
	}
	return sim, src, NewSink(prev)
}

func TestScheduleMatchesReferenceKernel(t *testing.T) {
	type outcome struct {
		Now        int64
		Data       []byte
		Flits      []Flit
		First      int64
		Last       int64
		Gaps       [9]uint64
		MaxGap     int64
		Sent       uint64
		SrcStalls  uint64
		WireCounts [][3]uint64
	}
	run := func(seed int64, cycle func(*Sim)) outcome {
		sim, src, sink := randomPipeline(seed)
		cycle(sim)
		sim.Add(sink) // a module added after the first Cycle
		for i := 0; i < 1500; i++ {
			cycle(sim)
		}
		o := outcome{Now: sim.Now(), Data: sink.Data, Flits: sink.Flits,
			First: sink.FirstCycle, Last: sink.LastCycle, Gaps: sink.GapCounts,
			MaxGap: sink.MaxGap, Sent: src.Sent, SrcStalls: src.StallCycles}
		for _, w := range sim.wires {
			o.WireCounts = append(o.WireCounts, [3]uint64{w.Transfers, w.Stalls, w.Occupied})
		}
		if src.Pending() != 0 || !sim.Drained() {
			t.Fatalf("seed %d: pipeline did not drain", seed)
		}
		return o
	}
	for seed := int64(1); seed <= 60; seed++ {
		got, want := run(seed, (*Sim).Cycle), run(seed, refCycle)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: schedule and reference kernel disagree:\n got %+v\nwant %+v", seed, got, want)
		}
		if len(got.Data) == 0 || got.First < 0 {
			t.Fatalf("seed %d: nothing reached the sink", seed)
		}
	}
}

// drain consumes its input and keeps nothing.
type drain struct{ in *Wire }

func (d *drain) Eval() { d.in.Take() }

// kernelLoop is Source → three pass-through stages → drain: the kernel's
// own dispatch with next to no unit work in it.
func kernelLoop() (*Sim, *Source) {
	sim := &Sim{}
	src := &Source{Out: sim.Wire("w0")}
	sim.Add(src)
	prev := src.Out
	for i := 1; i <= 3; i++ {
		next := sim.Wire(fmt.Sprintf("w%d", i))
		sim.Add(&passthrough{in: prev, out: next})
		prev = next
	}
	sim.Add(&drain{in: prev})
	return sim, src
}

// TestSourceSteadyFeedAllocatesNothing: the queue is consumed by head
// index and rewound once drained, so a warmed feed/drain loop reuses one
// backing array instead of sliding a window off its end.
func TestSourceSteadyFeedAllocatesNothing(t *testing.T) {
	sim, src := kernelLoop()
	burst := make([]Flit, 64)
	for i := range burst {
		burst[i] = FlitOf([]byte{byte(i)})
	}
	op := func() {
		src.Feed(burst...)
		for src.Pending() > 0 {
			sim.Cycle()
		}
	}
	op() // warm: the queue reaches its working capacity
	if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
		t.Errorf("warmed feed/drain loop allocates %.1f times per burst, want 0", allocs)
	}
	if src.Sent != 52*64 {
		t.Errorf("Sent = %d, want %d", src.Sent, 52*64)
	}
}

// BenchmarkKernelCycle reads the kernel's dispatch apart from unit work.
func BenchmarkKernelCycle(b *testing.B) {
	sim, src := kernelLoop()
	burst := make([]Flit, 256)
	for i := range burst {
		burst[i] = FlitOf([]byte{byte(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.Now()
	for i := 0; i < b.N; i++ {
		src.Feed(burst...)
		for src.Pending() > 0 {
			sim.Cycle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sim.Now()-start), "ns/cycle")
}

// seriesValues reads reg's series into a map of full series name
// (name plus label block) to value.
func seriesValues(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Series() {
		out[s.Full] = s.Value
	}
	return out
}
