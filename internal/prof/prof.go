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
// plus one of its own: when disarmed, the hot path takes zero clock
// samples (a nil/bool check is all that remains, and the verify gate
// prices the armed case at ≤2% of the disarmed engine bench).
//
// Sampling: 1 in 2^SampleShift steps is stamped with monotonic
// timestamps around every stage; a sampled step costs one clock read
// per stage boundary, an unsampled step costs one counter increment.
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

// Stage identifies one segment of the engine worker loop. The taxonomy
// maps onto the paper's pipeline: control (LCP/IPCP timers), encode
// (the fused CRC+stuff transmit kernel), line (TX buffer swap and wire
// move), tokenize (RX delineation, destuff, FCS, VJ and delivery into
// the receive queue), drain (receive-queue copy-out), deliver (payload
// accounting back in the caller), and barrier (the Run join, accounted
// by the Collector rather than stamped in-loop).
type Stage uint8

// The stages, in worker-loop order.
const (
	StageControl Stage = iota
	StageEncode
	StageLine
	StageTokenize
	StageDrain
	StageDeliver
	StageBarrier
	numStages
)

// NumStages is the number of distinct stages (including barrier).
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"control", "encode", "line", "tokenize", "drain", "deliver", "barrier",
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
	// RingSize is the per-shard ring of recent sampled whole-step costs
	// in ns (default 256, rounded up to a power of two).
	RingSize int
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
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	c.RingSize = pow2(c.RingSize)
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ShardProfile is one shard worker's private accounting. All methods
// except the Collector's are called only by the owning worker between
// StepStart/StepEnd pairs; the Run barrier publishes the fields to the
// Collector. The zero value is unusable — obtain one from a Collector.
type ShardProfile struct {
	clock func() int64
	mask  uint64 // sample when steps&mask == 0
	armed bool

	steps    uint64 // total steps seen
	sampled  uint64 // steps that were stamped
	sampling bool   // current step is being stamped

	stepStart int64 // clock at StepStart of the sampled step
	last      int64 // clock at the previous stamp

	ns    [numStages]uint64 // accumulated ns per stage (sampled steps)
	count [numStages]uint64 // stamps per stage

	ring  []int64 // recent sampled whole-step ns
	ringN uint64  // ring write cursor (monotonic)

	// Batch bookkeeping for barrier accounting: the worker records the
	// wall clock entering and leaving each Run batch; the Collector
	// (driver goroutine, after wg.Wait) turns the spread into barrier
	// wait and imbalance. Reset by Join.
	batchStart, batchEnd int64

	barrierNs    uint64 // accumulated join wait (written by Collector)
	barrierJoins uint64
}

// StepStart opens one engine step. Receivers may be nil (disarmed
// shard): every method is a no-op then.
func (p *ShardProfile) StepStart() {
	if p == nil || !p.armed {
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
// stage s. Multiple stamps per stage per step accumulate.
func (p *ShardProfile) Stamp(s Stage) {
	if p == nil || !p.sampling {
		return
	}
	now := p.clock()
	p.ns[s] += uint64(now - p.last)
	p.count[s]++
	p.last = now
}

// StepEnd closes the step, recording the whole-step cost into the
// ring. It reuses the final stamp's clock value — closing a sampled
// step costs no extra clock read.
func (p *ShardProfile) StepEnd() {
	if p == nil || !p.sampling {
		return
	}
	p.sampling = false
	p.sampled++
	p.ring[p.ringN&uint64(len(p.ring)-1)] = p.last - p.stepStart
	p.ringN++
}

// BatchStart marks the worker entering a Run batch.
func (p *ShardProfile) BatchStart() {
	if p == nil || !p.armed {
		return
	}
	p.batchStart = p.clock()
}

// BatchEnd marks the worker leaving a Run batch (just before wg.Done).
func (p *ShardProfile) BatchEnd() {
	if p == nil || !p.armed {
		return
	}
	p.batchEnd = p.clock()
}

// StageNs returns the accumulated sampled ns charged to stage s.
func (p *ShardProfile) StageNs(s Stage) uint64 {
	if s == StageBarrier {
		return p.barrierNs
	}
	return p.ns[s]
}

// StageCount returns how many stamps stage s received.
func (p *ShardProfile) StageCount(s Stage) uint64 {
	if s == StageBarrier {
		return p.barrierJoins
	}
	return p.count[s]
}

// Steps returns total steps seen; Sampled the stamped subset.
func (p *ShardProfile) Steps() uint64   { return p.steps }
func (p *ShardProfile) Sampled() uint64 { return p.sampled }

// RecentStepNs returns the retained ring of sampled whole-step costs,
// oldest first. Call only while the shard is quiescent.
func (p *ShardProfile) RecentStepNs() []int64 {
	n := p.ringN
	size := uint64(len(p.ring))
	if n <= size {
		return append([]int64(nil), p.ring[:n]...)
	}
	out := make([]int64, 0, size)
	start := n & (size - 1)
	out = append(out, p.ring[start:]...)
	out = append(out, p.ring[:start]...)
	return out
}

// Collector owns the per-shard profiles of one engine and their
// telemetry mirrors. Construct with New, hand Shard(i) to each worker,
// call Join from the driver after every Run barrier.
type Collector struct {
	cfg    Config
	clock  func() int64
	shards []*ShardProfile

	// Telemetry mirrors, nil when built without a registry.
	stageNs      [][]*telemetry.Counter // [shard][stage]
	stageSamples [][]*telemetry.Counter
	barrierNs    []*telemetry.Counter
	barrierJoins []*telemetry.Counter
	sampledSteps *telemetry.Counter
	imbalance    *telemetry.Gauge
	stepHist     *telemetry.Histogram
	histSynced   []uint64 // per-shard ring cursor already observed

	lastImbalance int64 // per-mille, from the newest Join
}

// stepBounds are the prof_step_ns histogram buckets: 1 µs to 50 ms.
var stepBounds = []int64{
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
	500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 50_000_000,
}

// New builds a Collector for nShards shard workers. reg may be nil for
// an unexposed collector (tests, tools); name labels the series
// (engine="name"). The collector starts armed.
func New(reg *telemetry.Registry, name string, nShards int, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{cfg: cfg, clock: cfg.Clock}
	c.shards = make([]*ShardProfile, nShards)
	mask := uint64(1)<<uint(cfg.SampleShift) - 1
	for i := range c.shards {
		c.shards[i] = &ShardProfile{
			clock: cfg.Clock,
			mask:  mask,
			armed: true,
			ring:  make([]int64, cfg.RingSize),
		}
	}
	c.histSynced = make([]uint64, nShards)
	if reg != nil {
		lbl := telemetry.L("engine", name)
		c.stageNs = make([][]*telemetry.Counter, nShards)
		c.stageSamples = make([][]*telemetry.Counter, nShards)
		c.barrierNs = make([]*telemetry.Counter, nShards)
		c.barrierJoins = make([]*telemetry.Counter, nShards)
		for i := 0; i < nShards; i++ {
			shard := telemetry.L("shard", strconv.Itoa(i))
			c.stageNs[i] = make([]*telemetry.Counter, numStages)
			c.stageSamples[i] = make([]*telemetry.Counter, numStages)
			for s := Stage(0); s < StageBarrier; s++ {
				stage := telemetry.L("stage", s.String())
				c.stageNs[i][s] = reg.Counter("prof_stage_ns_total",
					"Sampled wall-clock ns charged to one worker-loop stage.",
					lbl, shard, stage)
				c.stageSamples[i][s] = reg.Counter("prof_stage_samples_total",
					"Stage stamps taken (sampled steps only).", lbl, shard, stage)
			}
			c.barrierNs[i] = reg.Counter("prof_barrier_wait_ns_total",
				"Ns the shard spent finished while the Run barrier waited for stragglers.",
				lbl, shard)
			c.barrierJoins[i] = reg.Counter("prof_barrier_joins_total",
				"Run barriers this shard participated in.", lbl, shard)
		}
		c.sampledSteps = reg.Counter("prof_sampled_steps_total",
			"Engine steps that carried stage stamps, across all shards.", lbl)
		c.imbalance = reg.Gauge("prof_shard_imbalance",
			"Per-mille spread of shard busy time in the newest Run batch (0 = balanced).", lbl)
		c.stepHist = reg.Histogram("prof_step_ns",
			"Sampled whole-step cost distribution across shards.", stepBounds, lbl)
	}
	return c
}

// Shard returns the i'th worker's profile.
func (c *Collector) Shard(i int) *ShardProfile { return c.shards[i] }

// SetArmed arms or disarms every shard profile. Call only while the
// engine is quiescent (between Runs). Disarmed, the hot path takes
// zero clock samples — StepStart/Stamp/Batch* reduce to a bool check —
// and Join is a no-op too.
func (c *Collector) SetArmed(armed bool) {
	for _, p := range c.shards {
		p.armed = armed
	}
}

// Armed reports whether the collector is currently armed.
func (c *Collector) Armed() bool {
	return len(c.shards) > 0 && c.shards[0].armed
}

// Join settles one Run batch: it charges each shard's wait between its
// own finish and the global join to the barrier stage, recomputes the
// imbalance gauge from the batch busy times, and refreshes the
// telemetry mirrors. Call from the driver goroutine after the Run
// barrier (wg.Wait) — the barrier's happens-before edge makes every
// shard field safe to read here.
func (c *Collector) Join() {
	if !c.Armed() {
		return
	}
	join := c.clock()
	var minBusy, maxBusy int64 = -1, 0
	for _, p := range c.shards {
		if p.batchEnd == 0 {
			continue
		}
		p.barrierNs += uint64(join - p.batchEnd)
		p.barrierJoins++
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
		c.lastImbalance = 1000 * (maxBusy - minBusy) / maxBusy
	}
	c.Sync()
}

// Sync refreshes the telemetry mirrors from the shard profiles. Join
// calls it; standalone use needs the same quiescence.
func (c *Collector) Sync() {
	if c.stepHist != nil {
		for i, p := range c.shards {
			// Observe ring entries written since the last sync; if the
			// ring lapped us, take the retained window.
			n := p.ringN
			from := c.histSynced[i]
			size := uint64(len(p.ring))
			if n-from > size {
				from = n - size
			}
			for ; from < n; from++ {
				c.stepHist.Observe(p.ring[from&(size-1)])
			}
			c.histSynced[i] = n
		}
	}
	if c.stageNs == nil {
		return
	}
	var sampled uint64
	for i, p := range c.shards {
		for s := Stage(0); s < StageBarrier; s++ {
			c.stageNs[i][s].Set(p.ns[s])
			c.stageSamples[i][s].Set(p.count[s])
		}
		c.barrierNs[i].Set(p.barrierNs)
		c.barrierJoins[i].Set(p.barrierJoins)
		sampled += p.sampled
	}
	c.sampledSteps.Set(sampled)
	c.imbalance.Set(c.lastImbalance)
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
	sum := Summary{Shards: len(c.shards), ImbalancePerMille: c.lastImbalance}
	for _, p := range c.shards {
		sum.Steps += p.steps
		sum.Sampled += p.sampled
		for s := Stage(0); s < StageBarrier; s++ {
			sum.StageNs[s] += p.ns[s]
			sum.StageCount[s] += p.count[s]
		}
		sum.StageNs[StageBarrier] += p.barrierNs
		sum.StageCount[StageBarrier] += p.barrierJoins
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
