// Package prof is the hot-path performance observatory: sampled
// per-shard, per-stage cost accounting for the line-card engine's
// worker loop, a pprof capture harness for soaks and benches
// (session.go), and a runtime/metrics exporter (runtime.go).
//
// The paper's P5 wins by keeping every pipeline stage busy; the OAM
// block makes that claim checkable in hardware. This package is the
// software mirror at the engine scale: it answers "which stage of
// which shard burns the cycles" without perturbing the thing it
// measures. The accounting follows the same discipline as the rest of
// the repo's probes — plain fields written by exactly one goroutine
// (the shard worker), zero allocations after arming, telemetry mirrors
// refreshed only at the Run barrier where the engine is quiescent —
// plus one of its own: disarmed is a nil *ShardProfile, and the hot path
// then takes zero clock samples — a nil check inlined at each stamp
// site is all that remains (the root package's TestGateProfileOverhead
// holds the armed engine step within 8% of the disarmed one).
//
// This is the repo's one stage clock. The engine stamps the step-level
// boundaries and hands each Link its shard's profile, so the in-Link
// receive stages land in the same table — no second taxonomy, and no
// wall-clock read for stage timing anywhere outside this package.
//
// Sampling: 1 in 2^SampleShift steps is stamped with monotonic
// timestamps at every stage boundary; a sampled step costs one clock
// read per boundary, an unsampled step costs one counter increment.
// Per-shard results accumulate in fixed arrays plus a power-of-two
// ring of recent whole-step costs, all single-writer — the "lock-free"
// here is the strongest kind: no shared writes at all, published by
// the Run barrier's happens-before edge.
package prof

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Stage identifies one segment of the engine worker loop — the one
// taxonomy from encode to delivery. Each stamp charges the time since
// the previous one, so the stages tile a sampled step exactly:
//
//   - control: Link.Advance on both ends (LCP/IPCP timers, echo,
//     supervisor, flight/SLO service, telemetry mirrors);
//   - encode: SendIPv4Batch — the frame head prepared once per batch,
//     then per frame one FCS fold over the payload and one stuffing walk;
//   - line: the wire move — Flush plus the transport's Tick and Recv on
//     each end's TransportPort;
//   - tokenize: hdlc.Tokenizer.Feed for one input chunk — delineation,
//     destuff and, at each closing flag, the FCS fold over that frame's
//     body — and nothing else of Link.Input;
//   - decode: ppp.DecodeVerifiedBodyInto, the header parse of a frame
//     whose FCS verdict the tokenizer already delivered, under the
//     receive config Input latched for the chunk;
//   - vj: Van Jacobson decompression, when negotiated;
//   - queue: the copy into the link's receive arena and datagram queue;
//   - drain: ReceivedInto, the receive-queue copy-out;
//   - deliver: payload accounting back in the caller;
//   - barrier: the Run join, accounted by the Collector rather than
//     stamped in-loop.
type Stage uint8

// The stages, in worker-loop order.
const (
	StageControl Stage = iota
	StageEncode
	StageLine
	StageTokenize
	StageDecode
	StageVJ
	StageQueue
	StageDrain
	StageDeliver
	StageBarrier
	numStages
)

// NumStages is the number of distinct stages (including barrier).
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"control", "encode", "line", "tokenize", "decode", "vj", "queue",
	"drain", "deliver", "barrier",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// Config parameterises a Collector.
type Config struct {
	// SampleShift selects 1-in-2^SampleShift steps for stage stamping
	// (default 5 → every 32nd step). Negative samples every step.
	SampleShift int
	// Clock supplies monotonic wall-clock nanoseconds (default
	// time.Now().UnixNano). Injectable for tests.
	Clock func() int64
}

func (c Config) withDefaults() Config {
	if c.SampleShift == 0 {
		c.SampleShift = 5
	}
	if c.SampleShift < 0 {
		c.SampleShift = 0
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// stepRing is the per-shard ring of recent sampled whole-step costs
// (a power of two).
const stepRing = 256

// ShardProfile is one shard worker's private accounting. All methods
// except the Collector's are called only by the owning worker (and the
// Links it drives) between StepStart/StepEnd pairs; the Run barrier
// publishes the fields to the Collector. A nil *ShardProfile is the
// disarmed state: every method is a no-op that reads no clock. Obtain
// an armed one from a Collector.
type ShardProfile struct {
	clock func() int64
	mask  uint64 // sample when steps&mask == 0

	steps    uint64 // total steps seen
	sampled  uint64 // steps that were stamped
	sampling bool   // current step is being stamped

	stepStart int64 // clock at StepStart of the sampled step
	last      int64 // clock at the previous stamp

	ns    [numStages]uint64 // accumulated ns per stage (sampled steps)
	count [numStages]uint64 // stamps per stage

	ring  [stepRing]int64 // recent sampled whole-step ns
	ringN uint64          // ring write cursor (monotonic)

	// Batch bookkeeping for barrier accounting: the worker records the
	// wall clock entering and leaving each Run batch; the Collector
	// (driver goroutine, after wg.Wait) turns the spread into barrier
	// wait and imbalance. Reset by Join.
	batchStart, batchEnd int64
}

// StepStart opens one engine step.
func (p *ShardProfile) StepStart() {
	if p == nil {
		return
	}
	p.steps++
	if (p.steps-1)&p.mask != 0 {
		p.sampling = false
		return
	}
	p.sampling = true
	p.stepStart = p.clock()
	p.last = p.stepStart
}

// Stamp charges the time since the previous stamp (or StepStart) to
// stage s. Multiple stamps per stage per step accumulate. It is small
// enough to inline, so a disarmed or unsampled call site pays the two
// tests below and no call.
func (p *ShardProfile) Stamp(s Stage) {
	if p != nil && p.sampling {
		p.stamp(s)
	}
}

func (p *ShardProfile) stamp(s Stage) {
	now := p.clock()
	p.ns[s] += uint64(now - p.last)
	p.count[s]++
	p.last = now
}

// StepEnd closes the step, recording the whole-step cost into the
// ring. It reuses the final stamp's clock value — closing a sampled
// step costs no extra clock read, and the stage costs of the step sum
// to the recorded whole exactly.
func (p *ShardProfile) StepEnd() {
	if p == nil || !p.sampling {
		return
	}
	p.sampling = false
	p.sampled++
	p.ring[p.ringN&(stepRing-1)] = p.last - p.stepStart
	p.ringN++
}

// BatchStart marks the worker entering a Run batch.
func (p *ShardProfile) BatchStart() {
	if p != nil {
		p.batchStart = p.clock()
	}
}

// BatchEnd marks the worker leaving a Run batch (just before wg.Done).
func (p *ShardProfile) BatchEnd() {
	if p != nil {
		p.batchEnd = p.clock()
	}
}

// Collector owns the per-shard profiles of one engine and their
// telemetry mirrors. Construct with New, hand Shard(i) to each worker,
// call Join from the driver after every Run barrier.
type Collector struct {
	clock  func() int64
	shards []*ShardProfile

	// Barrier accounting, written by Join on the driver goroutine.
	barrierNs    []uint64 // accumulated join wait per shard
	barrierJoins []uint64
	imbalance    int64 // per-mille, from the newest Join

	// Telemetry, nil when built without a registry.
	mirror     *telemetry.Mirror
	stepHist   *telemetry.Histogram
	histSynced []uint64 // per-shard ring cursor already observed
}

// stepBounds are the prof_step_ns histogram buckets: 1 µs to 50 ms.
var stepBounds = []int64{
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
	500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 50_000_000,
}

// New builds a Collector for nShards shard workers. reg may be nil for
// an unexposed collector (tests, tools); name labels the series
// (engine="name").
func New(reg *telemetry.Registry, name string, nShards int, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		clock:        cfg.Clock,
		shards:       make([]*ShardProfile, nShards),
		barrierNs:    make([]uint64, nShards),
		barrierJoins: make([]uint64, nShards),
		histSynced:   make([]uint64, nShards),
	}
	mask := uint64(1)<<uint(cfg.SampleShift) - 1
	for i := range c.shards {
		c.shards[i] = &ShardProfile{clock: cfg.Clock, mask: mask}
	}
	if reg == nil {
		return c
	}
	lbl := telemetry.L("engine", name)
	c.mirror = reg.Mirror()
	for i, p := range c.shards {
		shard := telemetry.L("shard", strconv.Itoa(i))
		for s := Stage(0); s < StageBarrier; s++ {
			stage := telemetry.L("stage", s.String())
			c.mirror.Counter("prof_stage_ns_total",
				"Sampled wall-clock ns charged to one worker-loop stage.",
				func() uint64 { return p.ns[s] }, lbl, shard, stage)
			c.mirror.Counter("prof_stage_samples_total",
				"Stage stamps taken (sampled steps only).",
				func() uint64 { return p.count[s] }, lbl, shard, stage)
		}
		c.mirror.Counter("prof_barrier_wait_ns_total",
			"Ns the shard spent finished while the Run barrier waited for stragglers.",
			func() uint64 { return c.barrierNs[i] }, lbl, shard)
		c.mirror.Counter("prof_barrier_joins_total",
			"Run barriers this shard participated in.",
			func() uint64 { return c.barrierJoins[i] }, lbl, shard)
	}
	c.mirror.Counter("prof_sampled_steps_total",
		"Engine steps that carried stage stamps, across all shards.",
		func() uint64 {
			var n uint64
			for _, p := range c.shards {
				n += p.sampled
			}
			return n
		}, lbl)
	c.mirror.Gauge("prof_shard_imbalance",
		"Per-mille spread of shard busy time in the newest Run batch (0 = balanced).",
		func() int64 { return c.imbalance }, lbl)
	c.stepHist = reg.Histogram("prof_step_ns",
		"Sampled whole-step cost distribution across shards.", stepBounds, lbl)
	return c
}

// Shard returns the i'th worker's profile.
func (c *Collector) Shard(i int) *ShardProfile { return c.shards[i] }

// Join settles one Run batch: it charges each shard's wait between its
// own finish and the global join to the barrier stage, recomputes the
// imbalance gauge from the batch busy times, and refreshes the
// telemetry mirrors. Call from the driver goroutine after the Run
// barrier (wg.Wait) — the barrier's happens-before edge makes every
// shard field safe to read here.
func (c *Collector) Join() {
	join := c.clock()
	var minBusy, maxBusy int64 = -1, 0
	for i, p := range c.shards {
		if p.batchEnd == 0 {
			continue
		}
		c.barrierNs[i] += uint64(join - p.batchEnd)
		c.barrierJoins[i]++
		busy := p.batchEnd - p.batchStart
		if minBusy < 0 || busy < minBusy {
			minBusy = busy
		}
		if busy > maxBusy {
			maxBusy = busy
		}
		p.batchEnd = 0
	}
	if maxBusy > 0 && minBusy >= 0 {
		c.imbalance = 1000 * (maxBusy - minBusy) / maxBusy
	}
	c.sync()
}

// sync refreshes the telemetry mirrors from the shard profiles.
func (c *Collector) sync() {
	if c.stepHist != nil {
		for i, p := range c.shards {
			// Observe ring entries written since the last sync; if the
			// ring lapped us, take the retained window.
			n := p.ringN
			from := c.histSynced[i]
			if n-from > stepRing {
				from = n - stepRing
			}
			for ; from < n; from++ {
				c.stepHist.Observe(p.ring[from&(stepRing-1)])
			}
			c.histSynced[i] = n
		}
	}
	c.mirror.Sync()
}

// Summary is an aggregate view across shards, for reports and tests.
type Summary struct {
	Shards  int
	Steps   uint64 // per-shard steps, summed
	Sampled uint64
	// StageNs/StageCount index by Stage; StageBarrier holds the join
	// wait and join count.
	StageNs    [NumStages]uint64
	StageCount [NumStages]uint64
	// ImbalancePerMille is the busy-time spread of the newest batch.
	ImbalancePerMille int64
}

// Summary aggregates the per-shard accounting. Call between Runs.
func (c *Collector) Summary() Summary {
	sum := Summary{Shards: len(c.shards), ImbalancePerMille: c.imbalance}
	for i, p := range c.shards {
		sum.Steps += p.steps
		sum.Sampled += p.sampled
		for s := Stage(0); s < StageBarrier; s++ {
			sum.StageNs[s] += p.ns[s]
			sum.StageCount[s] += p.count[s]
		}
		sum.StageNs[StageBarrier] += c.barrierNs[i]
		sum.StageCount[StageBarrier] += c.barrierJoins[i]
	}
	return sum
}

// PerStep returns the mean sampled cost of stage s in ns per sampled
// step (0 when nothing was sampled).
func (s Summary) PerStep(st Stage) float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.StageNs[st]) / float64(s.Sampled)
}

// String renders the summary as one report line per concern.
func (s Summary) String() string {
	out := fmt.Sprintf("shards=%d steps=%d sampled=%d imbalance=%d‰\n",
		s.Shards, s.Steps, s.Sampled, s.ImbalancePerMille)
	for st := Stage(0); st < StageBarrier; st++ {
		out += fmt.Sprintf("  %-8s %12d ns total  %8.0f ns/sampled-step\n",
			st, s.StageNs[st], s.PerStep(st))
	}
	out += fmt.Sprintf("  %-8s %12d ns total  %8d joins\n",
		StageBarrier, s.StageNs[StageBarrier], s.StageCount[StageBarrier])
	return out
}
