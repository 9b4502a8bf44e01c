package gigapos

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// This file implements the sharded line-card engine: N independent PPP
// links partitioned across worker goroutines, each worker stepping its
// links in lockstep — advance the virtual clock, queue a batch of
// datagrams, move the wire bytes, drain the receive queues. The paper's
// P5 reaches 2.488 Gb/s on one 32-bit datapath; a line card multiplies
// that by packing many channels side by side, and this engine is that
// scale-out axis in software. Every per-frame path underneath it
// (Header.Append, the tokenizer arena, the double-buffered queues) is
// allocation-free in the steady state, so aggregate throughput scales
// with cores instead of with the garbage collector.

// EngineConfig sizes a line-card engine.
type EngineConfig struct {
	// Links is the number of bidirectional link pairs (default 1). Each
	// pair is two Links wired back to back in loopback.
	Links int
	// Shards is the number of worker goroutines the links are
	// partitioned across (default GOMAXPROCS, capped at Links). A link
	// pair is owned by exactly one shard; Links are not concurrency-safe
	// and the engine never shares one across workers.
	Shards int
	// Link is the per-endpoint configuration template. Magic numbers
	// are derived per endpoint so loopback negotiation never collides.
	Link LinkConfig
	// PayloadSize is the IPv4 datagram size generated per step
	// (default 512 octets).
	PayloadSize int
	// Batch is how many datagrams each endpoint queues per step
	// (default 8).
	Batch int
	// Transport supplies the line transports carrying port i's wire
	// octets, and with them the sides of the port this engine builds:
	// both endpoints of a pair (two sockets meeting on loopback, a
	// sonet.Line pair) build both links; a alone builds only the a end
	// (magic 0xA0000001+2i, address 10.x.y.1: the listener half of a
	// two-process pair) and z alone only the z end (magic
	// 0xA0000002+2i, address 10.x.y.2: the dialler half), whose peer
	// runs in another process. The engine owns the returned transports
	// and closes them with Close. Nil gives every port a
	// transport.NewPipePair.
	Transport func(port int) (a, z transport.LineTransport)
}

func (c EngineConfig) links() int {
	if c.Links <= 0 {
		return 1
	}
	return c.Links
}

func (c EngineConfig) shards() int {
	s := c.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if n := c.links(); s > n {
		s = n
	}
	return s
}

func (c EngineConfig) payloadSize() int {
	if c.PayloadSize <= 0 {
		return 512
	}
	return c.PayloadSize
}

func (c EngineConfig) batch() int {
	if c.Batch <= 0 {
		return 8
	}
	return c.Batch
}

// EngineStats is an aggregate snapshot across every shard.
type EngineStats struct {
	// Links and Shards echo the resolved topology.
	Links, Shards int
	// Steps is the number of engine steps run.
	Steps uint64
	// Datagrams is the number of network-layer datagrams delivered
	// end to end (both directions of every pair).
	Datagrams uint64
	// PayloadBytes is the delivered network-layer octet count.
	PayloadBytes uint64
	// LineBytes is the wire octet count moved between endpoints —
	// flags, stuffing and FCS included. This is the SONET payload rate:
	// divide by wall time for the engine's aggregate line rate.
	LineBytes uint64
	// RxErrors sums damaged-frame counts across every endpoint.
	RxErrors uint64
}

// enginePort is one port's endpoints plus its traffic state: both
// links of a loopback pair, or a single link in a single-ended engine
// (z nil), each behind the TransportPort that carries its wire. A port
// is owned exclusively by one shard worker.
type enginePort struct {
	a, z     *Link          // z is nil in a single-ended engine
	tpa, tpz *TransportPort // tpz is nil with z
	zSide    bool           // single-ended, and a is the pair's z end

	txBatch [][]byte   // batch of generated datagrams (shared template)
	rxTmp   []Datagram // reusable drain scratch
}

func (p *enginePort) step(now int64, s *engineShard) {
	// sp is nil until Observe arms a Profile; every stamp is then a single
	// predictable branch. On a sampled step each stamp charges the time
	// since the previous one to its stage — the taxonomy in
	// prof.Stage's doc comment maps one-to-one onto the calls here and
	// the ones the armed Links make inside Input (tokenize, decode, vj,
	// queue) and TransportPort.Poll (line, after the transport's Recv).
	sp := s.prof
	p.a.Advance(now)
	if p.z != nil {
		p.z.Advance(now)
	}
	sp.Stamp(prof.StageControl)
	if p.ready() {
		p.a.SendIPv4Batch(p.txBatch)
		if p.z != nil {
			p.z.SendIPv4Batch(p.txBatch)
		}
	}
	sp.Stamp(prof.StageEncode)
	n := p.tpa.Flush()
	if p.tpz != nil {
		n += p.tpz.Flush()
	}
	s.lineBytes += uint64(n)
	sp.Stamp(prof.StageLine)
	p.tpa.Poll(now)
	if p.tpz != nil {
		p.tpz.Poll(now)
	}
	p.rxTmp = p.a.ReceivedInto(p.rxTmp[:0])
	if p.z != nil {
		p.rxTmp = p.z.ReceivedInto(p.rxTmp)
	}
	sp.Stamp(prof.StageDrain)
	for i := range p.rxTmp {
		s.payloadBytes += uint64(len(p.rxTmp[i].Payload))
	}
	s.datagrams += uint64(len(p.rxTmp))
	sp.Stamp(prof.StageDeliver)
}

func (p *enginePort) ready() bool {
	return p.a.IPReady() && (p.z == nil || p.z.IPReady())
}

// engineShard is one worker: a private set of ports, a private clock,
// and plain counters nobody else touches while the worker runs. The
// Run barrier (channel send, WaitGroup wait) publishes them.
type engineShard struct {
	id    int
	ports []*enginePort
	now   int64

	datagrams    uint64
	payloadBytes uint64
	lineBytes    uint64

	// prof is nil until Engine.Observe arms a Profile; the driver sets it between
	// Runs, and the next steps-channel send publishes it to the worker.
	prof *prof.ShardProfile

	steps chan int
}

func (s *engineShard) run(wg *sync.WaitGroup) {
	// The pprof label makes CPU/goroutine samples attributable per
	// shard (p5_shard=N) whenever a profile is captured; with no
	// profile active it costs nothing per step.
	pprof.Do(context.Background(), pprof.Labels("p5_shard", strconv.Itoa(s.id)),
		func(context.Context) {
			for n := range s.steps {
				sp := s.prof
				sp.BatchStart()
				for i := 0; i < n; i++ {
					s.now++
					sp.StepStart()
					for _, p := range s.ports {
						p.step(s.now, s)
					}
					sp.StepEnd()
				}
				sp.BatchEnd()
				wg.Done()
			}
		})
}

// Engine is a sharded line card: EngineConfig.Links loopback PPP pairs
// partitioned across EngineConfig.Shards persistent workers. Drive it
// from one goroutine: Run blocks until every shard finishes its steps,
// and between Runs the engine (and its Links) may be inspected freely.
type Engine struct {
	cfg    EngineConfig
	shards []*engineShard
	wg     sync.WaitGroup
	closed bool

	steps uint64

	// prof is the stage-cost collector (nil until Observe with Profile).
	prof *prof.Collector

	// tel mirrors the aggregate counters (nil until Observe with Registry).
	tel *telemetry.Mirror
}

// NewEngine builds the engine and starts its shard workers (idle until
// Run). Links start administratively open with the physical layer up;
// call BringUp to complete negotiation before measuring.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg}
	nLinks, nShards := cfg.links(), cfg.shards()
	payload := make([]byte, cfg.payloadSize())
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	e.shards = make([]*engineShard, nShards)
	for i := range e.shards {
		e.shards[i] = &engineShard{id: i, steps: make(chan int)}
	}
	hook := cfg.Transport
	if hook == nil {
		hook = func(int) (a, z transport.LineTransport) { return transport.NewPipePair() }
	}
	for i := 0; i < nLinks; i++ {
		acfg, zcfg := cfg.Link, cfg.Link
		// Distinct, nonzero magic numbers per endpoint: loopback
		// negotiation must never look like a looped-back line. The
		// derivation is shared by both single-ended sides, so two
		// engines meeting over sockets agree on who is who.
		acfg.Magic = 0xA0000001 + uint32(i)*2
		zcfg.Magic = 0xA0000002 + uint32(i)*2
		if acfg.IPAddr == ([4]byte{}) {
			acfg.IPAddr = [4]byte{10, byte(i >> 8), byte(i), 1}
			zcfg.IPAddr = [4]byte{10, byte(i >> 8), byte(i), 2}
		}
		// The sides the hook returns are the sides this engine builds; a
		// single-ended engine's local link sits in slot a.
		ta, tz := hook(i)
		p := &enginePort{}
		switch {
		case ta != nil:
			p.a = NewLink(acfg)
		case tz != nil:
			p.a, ta, tz, p.zSide = NewLink(zcfg), tz, nil, true
		default:
			panic(fmt.Sprintf("gigapos: Transport(%d) returned no endpoint", i))
		}
		p.tpa = NewTransportPort(p.a, ta)
		if tz != nil {
			p.z = NewLink(zcfg)
			p.tpz = NewTransportPort(p.z, tz)
		}
		p.txBatch = make([][]byte, cfg.batch())
		for j := range p.txBatch {
			p.txBatch[j] = payload
		}
		p.a.Open()
		p.a.Up()
		if p.z != nil {
			p.z.Open()
			p.z.Up()
		}
		sh := e.shards[i%nShards]
		sh.ports = append(sh.ports, p)
	}
	for _, s := range e.shards {
		go s.run(&e.wg)
	}
	return e
}

// Run advances every shard n steps in parallel and blocks until all
// finish. One step is one virtual clock tick on every link: control
// timers, one transmit batch per direction (once negotiated), a full
// wire exchange, and a receive drain.
func (e *Engine) Run(n int) {
	if e.closed || n <= 0 {
		return
	}
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.steps <- n
	}
	e.wg.Wait()
	e.steps += uint64(n)
	if e.prof != nil {
		e.prof.Join()
	}
	e.tel.Sync()
}

// PortBringUp identifies one port that missed the bring-up deadline,
// with each side's IP readiness (ZReady is true for a single-ended
// port — the peer's state is not observable from here).
type PortBringUp struct {
	Port           int
	AReady, ZReady bool
}

// BringUpResult reports a bring-up attempt: whether every port
// converged, how many steps were spent, and which ports (if any)
// failed to negotiate within the deadline.
type BringUpResult struct {
	Ready  bool
	Steps  int
	Failed []PortBringUp
}

// String renders the result for logs: "ready in N steps" or the
// failed-port list.
func (r BringUpResult) String() string {
	if r.Ready {
		return fmt.Sprintf("ready in %d steps", r.Steps)
	}
	s := fmt.Sprintf("%d port(s) not converged after %d steps:", len(r.Failed), r.Steps)
	for _, f := range r.Failed {
		s += fmt.Sprintf(" port %d (a=%v z=%v)", f.Port, f.AReady, f.ZReady)
	}
	return s
}

// BringUp runs the engine until every port has negotiated LCP and IPCP
// or the deadline of maxSteps ticks expires, and reports which ports
// failed to converge.
func (e *Engine) BringUp(maxSteps int) BringUpResult {
	steps := 0
	for steps < maxSteps {
		e.Run(8)
		steps += 8
		if e.Ready() {
			return BringUpResult{Ready: true, Steps: steps}
		}
	}
	res := BringUpResult{Ready: e.Ready(), Steps: steps}
	if res.Ready {
		return res
	}
	for i := 0; i < e.cfg.links(); i++ {
		a, z := e.Port(i)
		pb := PortBringUp{Port: i, AReady: a.IPReady(), ZReady: z == nil || z.IPReady()}
		if !pb.AReady || !pb.ZReady {
			res.Failed = append(res.Failed, pb)
		}
	}
	return res
}

// Ready reports whether every pair has both directions IP-ready. Call
// only between Runs.
func (e *Engine) Ready() bool {
	for _, s := range e.shards {
		for _, p := range s.ports {
			if !p.ready() {
				return false
			}
		}
	}
	return true
}

// Stats aggregates counters across every shard. Call only between Runs.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Links:  e.cfg.links(),
		Shards: len(e.shards),
		Steps:  e.steps,
	}
	for _, s := range e.shards {
		st.Datagrams += s.datagrams
		st.PayloadBytes += s.payloadBytes
		st.LineBytes += s.lineBytes
		for _, p := range s.ports {
			st.RxErrors += p.a.RxErrors
			if p.z != nil {
				st.RxErrors += p.z.RxErrors
			}
		}
	}
	return st
}

func (e *Engine) port(i int) *enginePort {
	return e.shards[i%len(e.shards)].ports[i/len(e.shards)]
}

// Port returns the i'th link pair for inspection (a, z; z is nil in a
// single-ended engine). Call only between Runs; the port's shard owns
// the links while Run executes.
func (e *Engine) Port(i int) (a, z *Link) {
	p := e.port(i)
	return p.a, p.z
}

// ends returns p's local ends as the (a, z) of the pair they belong
// to, each behind its transport. A z-side port keeps its only link in
// slot a, but it is the pair's z end and named so.
func (p *enginePort) ends() (a, z Observable) {
	a = p.tpa
	if p.tpz != nil {
		z = p.tpz
	}
	if p.zSide {
		a, z = nil, a
	}
	return a, z
}

// TransportStats sums the counters of every line transport the engine
// owns. Call only between Runs.
func (e *Engine) TransportStats() transport.Stats {
	var sum transport.Stats
	for i := 0; i < e.cfg.links(); i++ {
		p := e.port(i)
		for _, tp := range []*TransportPort{p.tpa, p.tpz} {
			if tp == nil {
				continue
			}
			st := tp.T.Stats()
			sum.TxChunks += st.TxChunks
			sum.TxBytes += st.TxBytes
			sum.RxChunks += st.RxChunks
			sum.RxBytes += st.RxBytes
			sum.TxDropped += st.TxDropped
			sum.RxDropped += st.RxDropped
			sum.RxBadVersion += st.RxBadVersion
			sum.Reconnects += st.Reconnects
			sum.Resets += st.Resets
			sum.KeepaliveProbes += st.KeepaliveProbes
			sum.KeepaliveMisses += st.KeepaliveMisses
			sum.QueueDepth += st.QueueDepth
			if st.QueueHighWater > sum.QueueHighWater {
				sum.QueueHighWater = st.QueueHighWater
			}
		}
	}
	return sum
}

// Close stops the shard workers and closes any line transports the
// engine owns. The engine must not be Run again.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.steps)
	}
	for _, s := range e.shards {
		for _, p := range s.ports {
			p.tpa.T.Close()
			if p.tpz != nil {
				p.tpz.T.Close()
			}
		}
	}
}

// Observe arms o on the whole line card. Call between Runs; the next
// Run's channel send publishes it to the workers. With Registry: the
// engine_* aggregates labelled {engine=name}, refreshed at the end of
// every Run by the sync-mirror the Link probes use, so a live scrape
// never races a shard worker. With Profile: the one stage clock (prof_*,
// engine=name, shard=N) — sampled stamps at every stage boundary of the
// worker loop and, through the shard profile handed to each Link, of
// the receive path inside Link.Input, plus barrier wait and imbalance
// at each Run join (TestGateProfileOverhead holds the profiled step
// within 8% of the bare one). And every port as ObservePair arms any
// pair, named port<i>. The steady state stays allocation-free.
func (e *Engine) Observe(o Observation, name string) (w Watch) {
	if reg := o.Registry; reg != nil {
		lbl := telemetry.L("engine", name)
		e.tel = reg.Mirror()
		e.tel.Counter("engine_datagrams_total",
			"Network-layer datagrams delivered end to end, both directions.",
			func() uint64 { return e.Stats().Datagrams }, lbl)
		e.tel.Counter("engine_payload_bytes_total",
			"Delivered network-layer octets.", func() uint64 { return e.Stats().PayloadBytes }, lbl)
		e.tel.Counter("engine_line_bytes_total",
			"Wire octets moved between endpoints (flags, stuffing, FCS).",
			func() uint64 { return e.Stats().LineBytes }, lbl)
		e.tel.Counter("engine_steps_total",
			"Engine steps (virtual clock ticks) run.", func() uint64 { return e.steps }, lbl)
		reg.Gauge("engine_links", "Configured link pairs.", lbl).Set(int64(e.cfg.links()))
		reg.Gauge("engine_shards", "Worker goroutines.", lbl).Set(int64(len(e.shards)))
		e.tel.Sync()
	}
	if o.Profile != nil {
		e.prof = prof.New(o.Registry, name, len(e.shards), *o.Profile)
		w.Profile = e.prof
		for i, s := range e.shards {
			s.prof = e.prof.Shard(i)
			for _, p := range s.ports {
				p.a.prof = s.prof
				if p.z != nil {
					p.z.prof = s.prof
				}
			}
		}
	}
	for i := 0; i < e.cfg.links(); i++ {
		a, z := e.port(i).ends()
		w.ObservePair(o, fmt.Sprintf("port%d", i), a, z)
	}
	return w
}

// String summarises the engine topology.
func (e *Engine) String() string {
	return fmt.Sprintf("Engine{links=%d shards=%d batch=%d payload=%dB}",
		e.cfg.links(), len(e.shards), e.cfg.batch(), e.cfg.payloadSize())
}
