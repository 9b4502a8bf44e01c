package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// config fixes how a run is made. It is the same on every commit: the
// driver passes only the seed, the measuring time and the pass.
//
// The timed phase is a number of rounds; a round is one throughput
// segment (in the traced pass, one untraced and one traced), then one
// block of one-frame latency samples. Rounds are short and many because
// of how this host misbehaves: its speed on this code flips between
// levels up to 1.6x apart for seconds at a time (CPU cost per byte flips
// with it, so it is contention for the core, not steal), and how long it
// sits at each level changes from minute to minute. No quantile of a
// run's segments is steady under that; the fastest segment is, because
// nothing makes a segment faster than the uncontended machine, and among
// hundreds of short segments a few always run uncontended.
type config struct {
	seed       uint64
	trace      bool
	poolOctets int           // per workload
	setups     int           // set-ups timed, spread over the rounds
	warmup     time.Duration // untimed steps before the first round
	rounds     int
	segLen     time.Duration // one throughput segment
	blockLen   time.Duration // one latency block (at least blockMin samples)
	replay     time.Duration // budget of one standalone replay (traced)
}

// A latency block's median is taken over at least blockMin samples (a
// slow path overruns blockLen for them) and at most blockMax (a fast
// path ends its block early).
const (
	blockMin = 3
	blockMax = 256
)

// Round lengths are fixed; `seconds` sets how many rounds there are.
const (
	segLen   = 20 * time.Millisecond
	blockLen = 3750 * time.Microsecond
)

// fullConfig fills 95 % of `seconds` with rounds, or in the traced pass
// 50 %, leaving the rest to the replays.
func fullConfig(seed uint64, trace bool, seconds float64) config {
	cfg := config{
		seed: seed, trace: trace, poolOctets: 1 << 20, setups: 16,
		warmup: 500 * time.Millisecond, segLen: segLen, blockLen: blockLen,
	}
	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		cfg.setups = 1
		cfg.rounds = max(1, int(budget/2/(2*segLen+blockLen)))
		cfg.replay = budget / 20
		return cfg
	}
	cfg.rounds = max(1, int(budget*95/100/(segLen+blockLen)))
	return cfg
}

// smokeConfig is the quick pass the tests ride: every phase runs, none
// long enough for its timings to mean anything.
func smokeConfig(seed uint64, trace bool) config {
	return config{
		seed: seed, trace: trace, poolOctets: 128 << 10, setups: 2,
		warmup: 10 * time.Millisecond, rounds: 5, segLen: 20 * time.Millisecond,
		blockLen: 4 * time.Millisecond, replay: 5 * time.Millisecond,
	}
}

// setups maps a workload name to its set-up.
var setups = map[string]func(config) (workload, setupInfo, error){
	"link_mtu":      func(c config) (workload, setupInfo, error) { return setupLink(c, 1500, 0.02, 16) },
	"link_min40":    func(c config) (workload, setupInfo, error) { return setupLink(c, 40, 0.02, 600) },
	"link_escape50": func(c config) (workload, setupInfo, error) { return setupLink(c, 1500, 0.50, 16) },
	"sonet_imix":    setupSonet,
	"udp_window":    setupUDP,
	"engine_pipe":   setupEngine,
	"rtl_p5_32":     setupRTL,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	segments segmentStats // for the suite's result file, not the result line
}

// segmentStats describe the untraced segments' goodput, in Mb/s.
type segmentStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1_mbps"`
	Median float64 `json:"median_mbps"`
	Q3     float64 `json:"q3_mbps"`
	Max    float64 `json:"max_mbps"`
}

// segment is one timed slice of the closed loop.
type segment struct {
	frames, octets int
	wall, cpu      time.Duration
}

func (s segment) mbps() float64 { return float64(s.octets) * 8 / (float64(s.wall) / 1e3) }

// cpuTime is process CPU, user+sys, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally accumulates what the loop offered and what came back.
type tally struct{ delivered, lost int }

// runSegment steps w until d has elapsed.
func runSegment(w workload, tr *tracer, d time.Duration, t *tally) (segment, error) {
	var s segment
	cpu0, t0 := cpuTime(), time.Now()
	for {
		frames, octets, lost, err := w.step(tr)
		if err != nil {
			return s, err
		}
		s.frames += frames
		s.octets += octets
		t.delivered += frames
		t.lost += lost
		if s.wall = time.Since(t0); s.wall >= d {
			break
		}
	}
	s.cpu = cpuTime() - cpu0
	return s, nil
}

// traceCtx is what the traced segments hand to a workload's layers.
type traceCtx struct {
	cfg     config
	spans   []span
	self    [numSpans]int64 // totals over every traced segment
	frames  int             // delivered in the traced segments
	batches int
	// perFrame is, per span name, the lowest self time per delivered
	// frame any one traced segment showed: the same best-segment
	// estimator the end-to-end metrics and the replays use, so a span
	// and the replayed rung subtracted from it describe the same
	// (uncontended) machine.
	perFrame [numSpans]float64
	lad      *ladder // one cycle per round
}

// linkSelf reports the spans around the three Link calls and what is
// left of them once the replayed codec rungs are subtracted.
func (tc *traceCtx) linkSelf(m map[string]float64) {
	enc, tok, dec := tc.lad.perFrame()
	m["link.send_ns_per_frame"] = tc.perFrame[spanLinkSend]
	m["link.input_ns_per_frame"] = tc.perFrame[spanLinkInput]
	m["link.drain_ns_per_frame"] = tc.perFrame[spanLinkDrain]
	m["link.tx_self_ns_per_frame"] = tc.perFrame[spanLinkSend] - enc
	m["link.rx_self_ns_per_frame"] = tc.perFrame[spanLinkInput] - tok - dec
}

// runWorkload makes one run of one workload: set-up → verification pass
// → warm-up → timed rounds → verification pass. It writes the reader's
// table to log and returns the result line; spans are returned for the
// caller to write out once, at exit.
func runWorkload(name string, cfg config, log io.Writer) (*result, []span, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}

	// Set-up: payload generation + bring-up + socket dial. The first
	// instance carries the run; the others are set up and closed between
	// rounds, spread over the whole run so that they meet the host in all
	// its states, and setup_s is the fastest (see config).
	var setupS []float64
	timedSetup := func() (workload, setupInfo, error) {
		t0 := time.Now()
		w, info, err := setup(cfg)
		if err != nil {
			return nil, info, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return w, info, nil
	}
	w, info, err := timedSetup()
	if err != nil {
		return nil, nil, err
	}
	defer w.close()

	var t tally
	count := func(v verdict) {
		t.delivered += v.delivered
		t.lost += v.offered - v.delivered
	}
	first, err := w.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("verification pass before timing: %w", err)
	}
	count(first)

	for end := time.Now().Add(cfg.warmup); time.Now().Before(end); {
		if _, _, _, err := w.step(nil); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	var tr *tracer
	var lad *ladder
	if cfg.trace {
		tr = newTracer()
		lad = newLadder(w.replayInput())
	}
	var plain, traced []segment
	var tracedSpans [][2]int                       // each traced segment's range of tr.spans
	lat := make([]float64, 0, cfg.rounds*blockMax) // us, every sample
	var blockP50 []float64                         // us, each block's median
	var mallocs, allocBytes uint64                 // over the untraced segments: the tracer's own slices stay out
	var before, after runtime.MemStats             // read only in the traced pass: ReadMemStats stops the world
	for round := range cfg.rounds {
		if every := max(1, cfg.rounds/cfg.setups); round%every == every-1 && len(setupS) < cfg.setups {
			extra, _, err := timedSetup()
			if err != nil {
				return nil, nil, err
			}
			extra.close()
		}
		if cfg.trace {
			runtime.ReadMemStats(&before)
		}
		s, err := runSegment(w, nil, cfg.segLen, &t)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		plain = append(plain, s)
		if cfg.trace {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
			from := len(tr.spans)
			if s, err = runSegment(w, tr, cfg.segLen, &t); err != nil {
				return nil, nil, fmt.Errorf("round %d, traced: %w", round, err)
			}
			traced = append(traced, s)
			tracedSpans = append(tracedSpans, [2]int{from, len(tr.spans)})
			lad.cycle()
		}
		// One frame in flight on the idle path.
		from := len(lat)
		for end := time.Now().Add(cfg.blockLen); len(lat)-from < blockMin || len(lat)-from < blockMax && time.Now().Before(end); {
			d, err := w.latency()
			if err != nil {
				return nil, nil, fmt.Errorf("round %d, latency sample: %w", round, err)
			}
			lat = append(lat, float64(d)/1e3)
			t.delivered++
		}
		blockP50 = append(blockP50, percentile(lat[from:], 50))
	}

	last, err := w.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("verification pass after timing: %w", err)
	}
	count(last)
	if t.lost == 0 && (first.payload != last.payload || first.line != last.line) {
		return nil, nil, errors.New("the two verification passes counted different octets for the same pool cycle")
	}

	res := &result{Correct: true, Attempted: t.delivered + t.lost, Failed: t.lost, Metrics: map[string]metric{}}
	rates := make([]float64, len(plain))
	cpus := make([]float64, len(plain))
	frames := 0 // delivered in the untraced segments
	for i, s := range plain {
		rates[i] = s.mbps()
		cpus[i] = float64(s.cpu) / float64(s.octets)
		frames += s.frames
	}
	// The estimator is the best segment: the highest rate, the lowest
	// cost, the lowest block median (see config).
	rateBest := slices.Max(rates)
	rateQ1, rateMedian, rateQ3 := quartiles(rates)
	res.segments = segmentStats{len(rates), rateQ1, rateMedian, rateQ3, rateBest}

	if !cfg.trace {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		wireEff := last.payload / last.line
		vals := map[string]float64{
			"goodput_mbps":         rateBest,
			"cpu_ns_per_byte":      slices.Min(cpus),
			"frame_latency_p50_us": slices.Min(blockP50),
			"wire_efficiency":      wireEff,
			"heap_live_mb":         float64(ms.HeapAlloc) / (1 << 20),
			"setup_s":              slices.Min(setupS),
		}
		if err := fill(res, endToEnd, vals); err != nil {
			return nil, nil, err
		}
		printMetrics(log, name, endToEnd, vals)
		fmt.Fprintf(log, "%-14s line %.1f Mb/s = %.3f of OC-48 (2488.32); segments: median %.1f Mb/s, spread %.4f, n=%d; latency n=%d in %d blocks\n",
			name, rateBest/wireEff, rateBest/wireEff/2488.32, rateMedian, spread(rates), len(rates), len(lat), len(blockP50))
		return res, nil, nil
	}

	// Traced pass: per-layer metrics from the spans, then the replays.
	tc := &traceCtx{cfg: cfg, spans: tr.spans, lad: lad}
	// Tracing overhead is read off adjacent segment pairs, which share
	// the host's state of the moment.
	overhead := make([]float64, len(traced))
	for i := range tc.perFrame {
		tc.perFrame[i] = math.Inf(1)
	}
	for i, s := range traced {
		tc.frames += s.frames
		overhead[i] = 1 - s.mbps()/plain[i].mbps()
		for id, ns := range selfTimes(tr.spans[tracedSpans[i][0]:tracedSpans[i][1]]) {
			tc.self[id] += ns
			if s.frames > 0 { // a timed-out UDP window delivers none
				tc.perFrame[id] = min(tc.perFrame[id], float64(ns)/float64(s.frames))
			}
		}
	}
	var batchNS, selfNS int64
	for _, s := range tr.spans {
		if s.name == spanBatch {
			tc.batches++
			batchNS += s.end - s.start
		}
	}
	for _, ns := range tc.self {
		selfNS += ns
	}
	vals := map[string]float64{
		"netsim.gen_s":              info.genS,
		"link.bringup_ticks":        float64(info.bringupTicks),
		"mem.allocs_per_frame":      math.Round(float64(mallocs)/float64(frames)*100) / 100,
		"mem.alloc_bytes_per_frame": float64(allocBytes) / float64(frames),
		"e2e.frame_latency_p99_us":  percentile(lat, 99),
		"e2e.loss_ratio":            float64(t.lost) / float64(t.delivered+t.lost),
		"harness.segment_spread":    spread(rates),
	}
	if tc.frames == 0 {
		return nil, nil, errors.New("no frame was delivered under the tracer")
	}
	vals["harness.verify_ns_per_frame"] = tc.perFrame[spanVerify]
	if batchNS > 0 {
		vals["harness.span_coverage"] = float64(selfNS) / float64(batchNS)
	}
	_, vals["harness.trace_overhead_share"], _ = quartiles(overhead)
	lad.report(vals)
	if err := w.layers(vals, tc); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if err := fill(res, perLayer, vals); err != nil {
		return nil, nil, err
	}
	printMetrics(log, name, perLayer, vals)
	printLedger(log, name, tc.self, batchNS)
	return res, tr.spans, nil
}

// fill copies vals into the result under the table's names and units. A
// layer off the workload's path reads 0; a value that is not a finite
// number is a harness bug and fails the run.
func fill(res *result, defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return nil
}

func printMetrics(log io.Writer, workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(log, "%-14s %-34s %14.6g %s\n", workload, d.name, vals[d.name], d.unit)
	}
}

// printLedger is "where a byte's time goes": each span's self time as a
// share of the batches' wall time, largest first.
func printLedger(log io.Writer, workload string, self [numSpans]int64, batchNS int64) {
	if batchNS == 0 {
		return
	}
	ids := make([]spanID, 0, numSpans)
	for id, ns := range self {
		if ns > 0 {
			ids = append(ids, spanID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return self[ids[i]] > self[ids[j]] })
	fmt.Fprintf(log, "%-14s self-time shares:", workload)
	for _, id := range ids {
		fmt.Fprintf(log, " %s %.1f%%", spanNames[id], 100*float64(self[id])/float64(batchNS))
	}
	fmt.Fprintln(log)
}
