package gigapos

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestEngineProfileStageAccounting arms the observatory on a small
// VJ-negotiated engine carrying TCP/IP datagrams and checks that every
// stage of the one taxonomy gets charged — the worker loop's own
// boundaries and the ones the armed Links stamp inside Input — that the
// barrier accounting runs at each Run join, and that the telemetry
// series come out labelled per shard and stage.
//
// The clock is injected (one shared strictly increasing counter with
// an irregular stride), which makes the accounting claim exact: each
// stamp charges the time since the previous one, so over any number of
// sampled steps the stage costs sum to the recorded whole-step costs to
// the nanosecond, in-Link stamps included.
func TestEngineProfileStageAccounting(t *testing.T) {
	t.Run("loopback", func(t *testing.T) { testStageAccounting(t, nil) })
	// Over line transports TransportPort.Poll takes the line stamp after
	// the transport's Recv, so socket/pipe time is not charged to the
	// link's first receive stage.
	t.Run("pipe", func(t *testing.T) {
		testStageAccounting(t, func(int) (a, z transport.LineTransport) { return transport.NewPipePair() })
	})
}

func testStageAccounting(t *testing.T, hook func(int) (a, z transport.LineTransport)) {
	e := NewEngine(EngineConfig{Links: 4, Shards: 2, Batch: 4, Transport: hook,
		Link: LinkConfig{WantVJ: true, AllowVJ: true}})
	defer e.Close()
	tcp := buildTCP(1000, 5000, 1, make([]byte, 216))
	for _, s := range e.shards {
		for _, p := range s.ports {
			for i := range p.txBatch {
				p.txBatch[i] = tcp
			}
		}
	}
	var ticks atomic.Int64
	clock := func() int64 { n := ticks.Add(1); return n*7 + n%5 }
	reg := telemetry.NewRegistry()
	col := e.Observe(Observation{Registry: reg, Profile: &prof.Config{SampleShift: -1, Clock: clock}}, "test").Profile // stamp every step
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(64)
	if st := e.Stats(); st.Datagrams == 0 || st.RxErrors != 0 {
		t.Fatalf("traffic did not flow cleanly: %+v", st)
	}

	sum := col.Summary()
	if sum.Sampled == 0 {
		t.Fatal("no steps were sampled with SampleShift=-1")
	}
	for st := prof.Stage(0); st < prof.StageBarrier; st++ {
		if sum.StageCount[st] == 0 {
			t.Errorf("stage %v: no stamps", st)
		}
	}
	if sum.StageCount[prof.StageBarrier] == 0 {
		t.Error("no barrier joins accounted")
	}
	if hook != nil {
		// Per port and step: one line stamp after the flushes, one in
		// each end's Poll. Two ports a shard.
		if got, want := sum.StageCount[prof.StageLine], 3*2*sum.Sampled; got != want {
			t.Errorf("line stamps = %d, want %d (flush + one per Poll)", got, want)
		}
	}

	snap := seriesValues(reg)
	for _, series := range []string{
		`prof_stage_ns_total{engine="test",shard="0",stage="encode"}`,
		`prof_stage_ns_total{engine="test",shard="1",stage="tokenize"}`,
		`prof_stage_ns_total{engine="test",shard="1",stage="decode"}`,
		`prof_stage_ns_total{engine="test",shard="0",stage="vj"}`,
		`prof_stage_samples_total{engine="test",shard="0",stage="queue"}`,
		`prof_stage_samples_total{engine="test",shard="0",stage="drain"}`,
		`prof_barrier_wait_ns_total{engine="test",shard="0"}`,
		`prof_barrier_joins_total{engine="test",shard="1"}`,
		`prof_sampled_steps_total{engine="test"}`,
		`prof_shard_imbalance{engine="test"}`,
	} {
		if _, ok := snap[series]; !ok {
			t.Errorf("series %s missing from snapshot", series)
		}
	}
	if v := snap[`prof_sampled_steps_total{engine="test"}`]; v == 0 {
		t.Error("prof_sampled_steps_total = 0")
	}
	// The step-cost histogram flattens into _bucket/_sum/_count; no Run
	// above was long enough to lap the step ring, so its _sum is every
	// sampled step's whole cost and the stages must tile it exactly.
	if v := snap[`prof_step_ns_count{engine="test"}`]; v != float64(sum.Sampled) {
		t.Errorf("prof_step_ns took %v observations, want %d", v, sum.Sampled)
	}
	var stages uint64
	for st := prof.Stage(0); st < prof.StageBarrier; st++ {
		stages += sum.StageNs[st]
	}
	if whole := snap[`prof_step_ns_sum{engine="test"}`]; float64(stages) != whole {
		t.Errorf("stage ns sum to %d, whole steps to %.0f: the stages do not tile the step", stages, whole)
	}
}

// TestEngineProfileDisarmedZeroSamples is the hot-path guard. Disarmed
// is a nil profile: an engine that was never armed holds none — not in
// a shard, not in a link — so it has no clock it could read, and its
// Run leaves the armed control's injected clock untouched. The control
// then shows the same clock does count when an engine is armed, and
// that arming reaches every link.
func TestEngineProfileDisarmedZeroSamples(t *testing.T) {
	var calls atomic.Int64
	clock := func() int64 { return calls.Add(1) }
	cfg := EngineConfig{Links: 2, Shards: 2, PayloadSize: 128, Batch: 2}
	never, control := NewEngine(cfg), NewEngine(cfg)
	defer never.Close()
	defer control.Close()
	control.Observe(Observation{Profile: &prof.Config{SampleShift: -1, Clock: clock}}, "guard")

	never.Run(128)
	if n := calls.Load(); n != 0 {
		t.Fatalf("a never-armed engine's Run took %d clock samples, want 0", n)
	}
	armedLinks := func(e *Engine) (n int) {
		for _, s := range e.shards {
			if s.prof != nil {
				n++
			}
			for _, p := range s.ports {
				if p.a.prof != nil {
					n++
				}
				if p.z.prof != nil {
					n++
				}
			}
		}
		return n
	}
	if n := armedLinks(never); n != 0 {
		t.Fatalf("never-armed engine holds %d stage profiles, want none", n)
	}
	if n, want := armedLinks(control), 2+2*2; n != want {
		t.Fatalf("armed engine handed out %d stage profiles, want %d (every shard and link)", n, want)
	}
	control.Run(8)
	if calls.Load() == 0 {
		t.Fatal("armed engine took no clock samples — the guard test is vacuous")
	}
}

// TestEngineProfiledSteadyZeroAlloc pins the armed steady state at
// zero allocations per Run — stage accounting must ride the existing
// zero-alloc fast path without touching the garbage collector, even
// when stamping every step.
func TestEngineProfiledSteadyZeroAlloc(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 2, Shards: 1, PayloadSize: 256, Batch: 4})
	defer e.Close()
	reg := telemetry.NewRegistry()
	e.Observe(Observation{Registry: reg, Profile: &prof.Config{SampleShift: -1}}, "zeroalloc")
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(64) // settle buffers and lap the step ring once
	allocs := testing.AllocsPerRun(50, func() { e.Run(1) })
	if allocs != 0 {
		t.Fatalf("armed steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineProfileSummaryString smoke-tests the report rendering the
// p5sim -prof mode prints.
func TestEngineProfileSummaryString(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 1, PayloadSize: 128, Batch: 2})
	defer e.Close()
	col := e.Observe(Observation{Profile: &prof.Config{SampleShift: -1}}, "s").Profile
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(16)
	s := col.Summary().String()
	for _, want := range []string{"encode", "tokenize", "barrier", "sampled="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
