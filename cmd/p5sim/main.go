// Command p5sim runs the cycle-accurate P5 over a synthetic IP workload
// and reports the measured line performance — the simulation
// counterpart of the paper's 2.5 Gb/s headline. With -sonet the line
// octets ride an STM-1 SDH section through a scripted fault injector
// (byte slips, duplications, timed LOS line cuts), and the OAM status
// dump includes the live SONET alarm state and latched interrupt
// causes.
//
// With -telemetry ADDR the run is instrumented through the telemetry
// registry and, after the report, an HTTP endpoint stays up serving
// the Prometheus text exposition at /metrics, expvar JSON at
// /debug/vars, Go profiles under /debug/pprof/, and the structured
// event trace at /trace — scrape it with p5stat or curl, ^C to exit.
// -telemetry, -flight and -prof build the run's one gigapos.Observation;
// every end it arms is named <pair>_a or <pair>_z in every series,
// recorder and capture file.
//
// With -protect two software PPP endpoints ride a 1+1 protected STM-1
// line pair (GR-253 linear APS, bidirectional, revertive): the working
// line is cut under live traffic, the APS controller moves the receive
// selector to the protection line inside the 50 ms switch budget
// without an LCP/IPCP renegotiation, and after the line heals the
// group reverts through wait-to-restore. The report shows the switch
// record and the OAM protection registers; -telemetry exposes
// aps_switches_total and the aps_switch_duration histogram for both
// ends, labelled link="prot_a" / link="prot_z".
//
// With -engine N the run is the sharded software line card instead of
// the cycle-accurate model: N loopback PPP link pairs partitioned
// across -shards worker goroutines (default GOMAXPROCS), every
// per-frame path allocation-free, reporting aggregate delivered
// frames/s and line-rate Gb/s. -frames sets the measured step count
// and -size the datagram size. With -sonet as well, every pair rides an
// STM-16 section (sonet.Line) per direction instead of the in-process
// wire, and the report adds the SDH line rate, delivered against
// expected datagrams and the LCP renegotiation count. Any other two
// modes together are a usage error.
//
// With -listen or -dial the engine's link pairs are split across two
// p5sim processes interconnected by real UDP or TCP sockets (-net-transport,
// link i on base port + i): the listener runs the A half, the dialer the
// Z half, each supervised end-to-end — keepalive dead-peer detection
// escalates a dark line into a transport-LOS defect and the link
// supervisor renegotiates when the line returns. -net-stall and
// -net-blackout script transport chaos windows; the run ends with a
// machine-greppable NET-REPORT line, and -telemetry additionally serves
// the transport /health and /status endpoints plus the transport_*
// series (render with p5stat -transport).
//
// With -scenario FILE the run is a declarative chaos drill: the JSON
// file describes a multi-node SONET ring (UPSR or BLSR), the circuits
// riding it, an IMIX traffic profile, scripted faults (fibre cuts,
// noise bursts, node failures), and SLO assertions. p5sim builds the
// ring, runs the drill, prints the graded report, and exits non-zero
// if any assertion fails — with the paths of the .p5fr flight
// captures that hold the evidence. Committed drills live under
// scenarios/.
//
// With -flight DIR (in the modes that build links: -protect, -engine,
// -listen/-dial, -scenario; a usage error elsewhere) every link is
// armed with the always-on flight recorder: per-frame latency
// histograms with exemplars, SLO burn-rate gauges in /metrics for both
// directions of every pair, the error-budget board at /slo (render
// with p5stat -slo), and black-box captures (.p5fr, decode with
// p5trace -capture) written to DIR on every defect escalation, APS
// switch, FCS burst, or supervisor restart.
//
// With -prof DIR the run is the performance observatory: CPU, heap,
// allocs, mutex, block, and goroutine profiles are captured for the
// whole run and written to DIR (inspect with go tool pprof). Where an
// engine runs (-engine, -listen/-dial) the worker loop additionally
// arms per-shard stage cost accounting — the -engine report gains a
// stage-by-stage ns/step breakdown, barrier wait, and shard imbalance,
// and the prof_* series join /metrics. Combined with -flight, every
// black-box capture also drops a tagged profile snapshot next to its
// .p5fr file, and in -protect the host can demand a snapshot through
// the OAM RegProfCtrl register.
// Whenever telemetry is armed, runtime/metrics (GC pauses, scheduler
// latency, goroutine count) are exported as runtime_* gauges.
//
// Usage:
//
//	p5sim [-width 8|32] [-frames N] [-size imix|N] [-density F] [-errors F] [-v]
//	      [-telemetry ADDR] [-flight DIR] [-prof DIR]
//	      [-sonet] [-slip-every N] [-los-windows N] [-los-frames N] [-dup-every N]
//	      [-protect]
//	      [-engine N] [-shards N] [-sonet]
//	      [-listen HOST:PORT | -dial HOST:PORT] [-net-transport udp|tcp]
//	      [-net-keepalive N] [-tick-us N] [-net-stall FROM:TO] [-net-blackout FROM:TO]
//	      [-scenario FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	gigapos "repro"
	"repro/internal/aps"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/prof"
	"repro/internal/rtl"
	"repro/internal/sonet"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// simConfig is one p5sim run, decoupled from flag parsing so tests can
// drive run() directly.
type simConfig struct {
	width   int
	frames  int
	size    string
	density float64
	errRate float64
	seed    uint64
	verbose bool

	// telemetryAddr, when non-empty, serves the exposition endpoints
	// after the run (":0" picks a free port).
	telemetryAddr string

	// flightDir, when non-empty, arms the flight recorder in the modes
	// that build links and writes black-box captures there.
	flightDir string

	// profDir, when non-empty, captures runtime profiles for the whole
	// run into this directory and (where an engine runs) arms per-shard
	// stage cost accounting.
	profDir string
	// profSession is the live capture started by run(); modes stop it
	// through stopProf after their report.
	profSession *prof.Session

	sonetMode bool
	faults    fault.RandomConfig

	// protectMode runs the 1+1 APS failover scenario; cutFrames is the
	// length of the scripted working-line cut in STM-1 frame times.
	protectMode bool
	cutFrames   int

	// engineLinks, when nonzero, runs the sharded line-card engine with
	// this many loopback link pairs across engineShards workers.
	engineLinks  int
	engineShards int

	// scenarioFile, when non-empty, runs a declarative chaos drill from
	// this JSON file on a simulated SONET ring and exits non-zero if any
	// of the drill's assertions fail.
	scenarioFile string

	// net holds the -listen/-dial socket line-card configuration; the
	// mode is active when either address is set.
	net netConfig

	// mountExtra, when non-nil, adds mode-specific handlers (the
	// transport /health and /status board) to the telemetry mux.
	mountExtra func(*http.ServeMux)

	// scrape, when set, is called with the endpoint base URL while the
	// server is up; the server is then shut down instead of lingering.
	// Test hook — nil in normal operation.
	scrape func(baseURL string)
}

// usageError marks bad invocations (exit status 2 rather than 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	cfg := simConfig{}
	flag.IntVar(&cfg.width, "width", 32, "datapath width in bits (8 or 32)")
	flag.IntVar(&cfg.frames, "frames", 100, "datagrams to send")
	flag.StringVar(&cfg.size, "size", "imix", "datagram sizes: 'imix' or a fixed byte count")
	flag.Float64Var(&cfg.density, "density", 0.02, "payload escape density (0..1)")
	flag.Float64Var(&cfg.errRate, "errors", 0, "per-word probability of a line bit error")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.BoolVar(&cfg.verbose, "v", false, "print per-frame dispositions")
	flag.StringVar(&cfg.telemetryAddr, "telemetry", "", "serve /metrics, /debug/vars, /debug/pprof/, /trace on this address after the run")
	flag.StringVar(&cfg.flightDir, "flight", "", "arm the flight recorder (with -protect, -engine, -listen/-dial or -scenario); write .p5fr captures to this directory")
	flag.StringVar(&cfg.profDir, "prof", "", "capture CPU/heap/mutex/block profiles for the run into this directory; with -engine, arm per-shard stage accounting")
	flag.BoolVar(&cfg.sonetMode, "sonet", false, "carry the line over an STM-1 section with fault injection")
	flag.BoolVar(&cfg.protectMode, "protect", false, "run the 1+1 APS failover scenario (working-line cut of -los-frames frames)")
	flag.IntVar(&cfg.engineLinks, "engine", 0, "run the sharded line-card engine with this many loopback link pairs")
	flag.IntVar(&cfg.engineShards, "shards", 0, "engine worker goroutines (default GOMAXPROCS)")
	flag.StringVar(&cfg.scenarioFile, "scenario", "", "run a declarative chaos drill (JSON, see scenarios/) on a simulated ring")
	flag.StringVar(&cfg.net.listen, "listen", "", "run the listener half of a two-process link over real sockets, binding HOST:PORT (link i uses PORT+i)")
	flag.StringVar(&cfg.net.dial, "dial", "", "run the dialer half of a two-process link, connecting to the peer's HOST:PORT")
	flag.StringVar(&cfg.net.proto, "net-transport", "udp", "socket transport for -listen/-dial: udp or tcp")
	flag.Int64Var(&cfg.net.keepalive, "net-keepalive", 64, "transport keepalive probe period in virtual ticks")
	flag.IntVar(&cfg.net.tickUS, "tick-us", 50, "wall-clock microseconds per virtual tick in network mode")
	netStall := flag.String("net-stall", "", "hold port 0's transmit chunks in the tick window FROM:TO (after convergence), releasing them when it ends")
	netBlackout := flag.String("net-blackout", "", "cut port 0's line completely in the tick window FROM:TO (after convergence)")
	slipEvery := flag.Int("slip-every", 0, "sonet: mean octets between byte slips (0 = none)")
	losWindows := flag.Int("los-windows", 0, "sonet: number of timed line cuts")
	losFrames := flag.Int("los-frames", 30, "sonet: length of each line cut in STM-1 frames")
	dupEvery := flag.Int("dup-every", 0, "sonet: mean octets between 16-octet duplications (0 = none)")
	flag.Parse()
	cfg.faults = fault.RandomConfig{
		SlipEvery:  *slipEvery,
		LOSWindows: *losWindows,
		LOSLen:     *losFrames * sonet.STM1.FrameBytes(),
		DupEvery:   *dupEvery,
	}
	cfg.cutFrames = *losFrames
	var werr error
	if cfg.net.stallFrom, cfg.net.stallTo, werr = parseWindow(*netStall); werr != nil {
		fmt.Fprintln(os.Stderr, "p5sim: bad -net-stall:", werr)
		os.Exit(2)
	}
	if cfg.net.blackoutFrom, cfg.net.blackoutTo, werr = parseWindow(*netBlackout); werr != nil {
		fmt.Fprintln(os.Stderr, "p5sim: bad -net-blackout:", werr)
		os.Exit(2)
	}

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p5sim:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// modeConflict names the first two mode flags of cfg that cannot be
// combined, or the first flag set in a mode that would never read it.
// Only two pairings mean something: -listen/-dial take their link count
// from -engine, and -engine -sonet puts the line card behind STM-16
// lines.
func modeConflict(cfg simConfig) error {
	scenario, netMode := cfg.scenarioFile != "", cfg.net.listen != "" || cfg.net.dial != ""
	engine := cfg.engineLinks > 0
	modes := []struct {
		flag string
		on   bool
	}{
		{"-scenario", scenario},
		{"-listen/-dial", netMode},
		{"-engine", engine},
		{"-protect", cfg.protectMode},
		{"-sonet", cfg.sonetMode},
	}
	for i, a := range modes {
		for _, b := range modes[i+1:] {
			pair := a.flag + " " + b.flag
			if a.on && b.on && pair != "-listen/-dial -engine" && pair != "-engine -sonet" {
				return usageError(a.flag + " and " + b.flag + " cannot be combined")
			}
		}
	}
	switch chaos := cfg.net.stallTo > cfg.net.stallFrom || cfg.net.blackoutTo > cfg.net.blackoutFrom; {
	case cfg.flightDir != "" && !(cfg.protectMode || engine || netMode || scenario):
		return usageError("-flight needs one of -protect, -engine, -listen/-dial, -scenario: the modes that arm a recorder")
	case cfg.engineShards != 0 && !(engine || netMode):
		return usageError("-shards needs one of -engine, -listen/-dial")
	case chaos && !netMode:
		return usageError("-net-stall/-net-blackout needs one of -listen/-dial")
	}
	return nil
}

// run executes one simulation per cfg, writing the report to out.
func run(cfg simConfig, out io.Writer) error {
	if err := modeConflict(cfg); err != nil {
		return err
	}
	if cfg.flightDir != "" {
		// Create the directory up front so a missing one is a loud
		// startup error; a capture write that fails later is counted
		// and shows in the flight summary.
		if err := os.MkdirAll(cfg.flightDir, 0o755); err != nil {
			return fmt.Errorf("-flight: %w", err)
		}
	}
	if cfg.profDir != "" {
		s, err := prof.StartSession(cfg.profDir)
		if err != nil {
			return fmt.Errorf("-prof: %w", err)
		}
		cfg.profSession = s
	}
	if cfg.scenarioFile != "" {
		return runScenario(cfg, out)
	}
	if cfg.net.listen != "" || cfg.net.dial != "" {
		return runNet(cfg, cfg.net, out)
	}
	if cfg.engineLinks > 0 {
		return runEngine(cfg, out)
	}
	if cfg.protectMode {
		return runProtect(cfg, out)
	}
	if cfg.sonetMode {
		return runSONET(cfg, out)
	}
	return runLoopback(cfg, out)
}

// stopProf ends the run-wide profile capture and reports the files. It
// runs from serveTelemetry — after every mode's report, before the
// endpoint (which may linger forever) comes up.
func stopProf(cfg simConfig, out io.Writer) error {
	if cfg.profSession == nil {
		return nil
	}
	files, err := cfg.profSession.Stop()
	if err != nil {
		return fmt.Errorf("-prof: %w", err)
	}
	fmt.Fprintf(out, "  profiles         : %d written to %s (go tool pprof %s/cpu.pprof)\n",
		len(files), cfg.profDir, cfg.profDir)
	return nil
}

// parseCommon validates the flag combinations shared by both modes and
// returns the byte width and size distribution.
func parseCommon(cfg simConfig) (int, netsim.SizeDist, error) {
	w := cfg.width / 8
	if w != 1 && w != 4 {
		return 0, nil, usageError("-width must be 8 or 32")
	}
	var dist netsim.SizeDist = netsim.IMIX{}
	if cfg.size != "imix" {
		n, err := strconv.Atoi(cfg.size)
		if err != nil {
			return 0, nil, usageError("bad -size: " + err.Error())
		}
		dist = netsim.Fixed(n)
	}
	return w, dist, nil
}

// observation is what the run watches: -telemetry (or a test's scrape
// hook) sets the registry and tracer, -flight the recorder, -prof the
// stage clock. The modes that build links hand it to Observe; the RTL
// modes read its Registry and Tracer for the model's own probes.
func observation(cfg simConfig) gigapos.Observation {
	var o gigapos.Observation
	if cfg.telemetryAddr != "" || cfg.scrape != nil {
		o.Registry, o.Tracer = telemetry.NewRegistry(), telemetry.NewTracer(4096)
		// Instrumented runs always carry the Go runtime's own vitals —
		// GC pauses, scheduler latency, goroutine count — refreshed at
		// every scrape through the registry's sampler hook.
		prof.ExportRuntime(o.Registry)
	}
	if cfg.flightDir != "" {
		o.Flight = &flight.Config{Dir: cfg.flightDir}
	}
	if cfg.profDir != "" {
		o.Profile = &prof.Config{}
		if o.Flight != nil {
			// Every black-box dump drops a tagged profile snapshot beside it.
			o.Flight.Profiler = func(c *flight.Capture) {
				prof.WriteSnapshot(cfg.profDir, fmt.Sprintf("flight-%s-%d", c.Reason, c.Seq))
			}
		}
	}
	return o
}

// serveTelemetry starts the exposition endpoint after a run, mounting
// the flight board at /slo when one exists. With a scrape hook the
// server lives only for the hook call; otherwise it lingers until the
// process is killed so the operator can attach p5stat, curl /metrics,
// or pull a profile.
func serveTelemetry(cfg simConfig, o gigapos.Observation, board *flight.Board, out io.Writer) error {
	if err := stopProf(cfg, out); err != nil {
		return err
	}
	reg := o.Registry
	if reg == nil {
		return nil
	}
	addr := cfg.telemetryAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	telemetry.Publish(reg, "p5sim")
	mux := telemetry.Mux(reg, o.Tracer)
	endpoints := "/debug/vars /debug/pprof/ /trace"
	if board != nil {
		mux.Handle("/slo", board.Handler())
		endpoints += " /slo"
	}
	if cfg.mountExtra != nil {
		cfg.mountExtra(mux)
		endpoints += " /health /status"
	}
	srv, err := telemetry.ServeHandler(addr, mux)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  telemetry        : http://%s/metrics (%s)\n", srv.Addr, endpoints)
	if cfg.scrape != nil {
		cfg.scrape("http://" + srv.Addr)
		return srv.Close()
	}
	select {} // serve until interrupted
}

// flightSummary renders the one-line flight report: aggregate frames
// tracked/lost, captures dumped (returned), and the worst SLO burn
// across the board — plus a second line when capture files failed to
// land.
func flightSummary(out io.Writer, board *flight.Board, dir string) (captures uint64) {
	doc := board.Snapshot()
	var tracked, lost uint64
	exemplars := 0
	for _, l := range doc.Links {
		tracked += l.Tracked
		lost += l.Lost
		captures += l.Captures
		exemplars += len(l.Exemplars)
	}
	worst, alarm := 0.0, false
	for _, s := range doc.SLOs {
		if s.WorstBurn > worst {
			worst = s.WorstBurn
		}
		alarm = alarm || s.Alarm
	}
	fmt.Fprintf(out, "  flight           : tracked=%d lost=%d captures=%d exemplars=%d worst-burn=%.2f alarm=%v dir=%s\n",
		tracked, lost, captures, exemplars, worst, alarm, dir)
	reportCaptureWriteErrors(out, doc.Links, dir)
	return captures
}

// reportCaptureWriteErrors adds a line to any report that names capture
// files when some never reached dir: evidence the reader would look for
// and not find. Silent when every write landed.
func reportCaptureWriteErrors(out io.Writer, links []flight.LinkJSON, dir string) {
	var n uint64
	for _, l := range links {
		n += l.CaptureWriteErrors
	}
	if n > 0 {
		fmt.Fprintf(out, "  capture errors   : %d capture file(s) could NOT be written to %s (flight_capture_write_errors_total)\n", n, dir)
	}
}

// runEngine is the -engine mode: the sharded software line card. N
// loopback PPP pairs negotiate in parallel, then run -frames engine
// steps of steady-state bidirectional traffic; the report is the
// aggregate delivered rate and the wire rate the pairs sustained.
func runEngine(cfg simConfig, out io.Writer) error {
	size := 512
	if cfg.size != "imix" {
		n, err := strconv.Atoi(cfg.size)
		if err != nil || n <= 0 {
			return usageError("bad -size: want a positive byte count")
		}
		size = n
	}
	steps := cfg.frames
	if steps <= 0 {
		steps = 1000
	}
	ecfg := gigapos.EngineConfig{
		Links:       cfg.engineLinks,
		Shards:      cfg.engineShards,
		PayloadSize: size,
		Batch:       8,
	}
	if cfg.sonetMode {
		// The line card behind its PHY: every pair rides an STM-16
		// section, one frame per direction per step.
		ecfg.Transport = func(int) (a, z transport.LineTransport) { return sonet.NewLinePair(sonet.STM16) }
	}
	e := gigapos.NewEngine(ecfg)
	defer e.Close()
	o := observation(cfg)
	w := e.Observe(o, "linecard")

	if bu := e.BringUp(1024); !bu.Ready {
		return fmt.Errorf("engine bring-up failed: %s", bu)
	}
	e.Run(32) // settle buffers at steady-state capacity
	start := e.Stats()
	restarts0, cut0 := sumRestarts(e, cfg.engineLinks), e.TransportStats().TxChunks
	t0 := time.Now()
	e.Run(steps)
	elapsed := time.Since(t0)
	st := e.Stats()

	delivered := st.Datagrams - start.Datagrams
	payload := st.PayloadBytes - start.PayloadBytes
	line := st.LineBytes - start.LineBytes
	secs := elapsed.Seconds()

	fmt.Fprintf(out, "Sharded line-card engine (software PPP, fused CRC+stuff fast path)\n")
	fmt.Fprintf(out, "  topology         : %d link pairs on %d shard workers (GOMAXPROCS=%d)\n",
		st.Links, st.Shards, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "  traffic          : %d steps, %d-octet datagrams, batch 8 per direction\n",
		steps, size)
	fmt.Fprintf(out, "  delivered        : %d datagrams, %d payload octets (rx-errors=%d)\n",
		delivered, payload, st.RxErrors)
	fmt.Fprintf(out, "  aggregate        : %.0f frames/s, %.3f Gb/s payload, %.3f Gb/s line\n",
		float64(delivered)/secs, float64(payload)*8/secs/1e9, float64(line)*8/secs/1e9)
	fmt.Fprintf(out, "  paper scale      : %.2fx the 2.488 Gb/s STM-16 line rate\n",
		float64(line)*8/secs/1e9/2.488)
	if cfg.sonetMode {
		ts := e.TransportStats()
		cut := ts.TxChunks - cut0
		fmt.Fprintf(out, "  SONET lines      : %d STM-16 sections, %d frames cut = %.3f Gb/s of SDH line; queue high-water %d octets\n",
			2*st.Links, cut, float64(cut)*float64(sonet.STM16.FrameBytes())*8/secs/1e9, ts.QueueHighWater)
		fmt.Fprintf(out, "  session          : %d/%d datagrams delivered, lcp-renegotiations=%d\n",
			delivered, uint64(steps*st.Links*2*ecfg.Batch), sumRestarts(e, cfg.engineLinks)-restarts0)
	}
	if w.Profile != nil {
		sum := w.Profile.Summary()
		fmt.Fprintf(out, "  stage profile    : %d shards, %d/%d steps sampled, shard imbalance %d‰\n",
			sum.Shards, sum.Sampled, sum.Steps, sum.ImbalancePerMille)
		for st := prof.Stage(0); int(st) < prof.NumStages; st++ {
			if sum.StageCount[st] == 0 {
				continue
			}
			fmt.Fprintf(out, "    %-9s: %8.0f ns/step (%d samples)\n",
				st, sum.PerStep(st), sum.StageCount[st])
		}
	}
	if w.Board != nil {
		flightSummary(out, w.Board, cfg.flightDir)
	}
	return serveTelemetry(cfg, o, w.Board, out)
}

// runLoopback is the default pipeline: transmitter and receiver share
// one simulation with the line model looping octets straight back.
func runLoopback(cfg simConfig, out io.Writer) error {
	w, dist, err := parseCommon(cfg)
	if err != nil {
		return err
	}
	gen := netsim.NewGen(cfg.seed, dist, cfg.density)
	sys := p5.NewSystem(w)
	o := observation(cfg)
	if o.Registry != nil {
		sys.Instrument(o.Registry, "p5")
	}

	if cfg.errRate > 0 {
		rng := netsim.NewRand(cfg.seed ^ 0xBEEF)
		sys.Line.Corrupt = func(f rtl.Flit, cycle int64) rtl.Flit {
			if rng.Float64() < cfg.errRate {
				lane := rng.Intn(f.N)
				f.SetByte(lane, f.Byte(lane)^byte(1<<uint(rng.Intn(8))))
			}
			return f
		}
	}

	var payloadBits int64
	for i := 0; i < cfg.frames; i++ {
		d := gen.Next()
		payloadBits += int64(len(d)) * 8
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	if !sys.RunUntilIdle(200_000_000) {
		return fmt.Errorf("system did not drain")
	}
	sys.SyncTelemetry()

	good, bad := tally(out, sys.Received(), cfg.verbose)

	cycles := sys.Sim.Now()
	bitsPerCycle := float64(payloadBits) / float64(cycles)
	depth := synth.Total(synth.Inventory(w)).Depth
	fmaxV2 := synth.VirtexII.FMaxMHz(depth, true)

	fmt.Fprintf(out, "P5 %d-bit loopback simulation\n", cfg.width)
	fmt.Fprintf(out, "  datagrams        : %d sent, %d delivered, %d rejected\n", cfg.frames, good, bad)
	fmt.Fprintf(out, "  payload          : %d bits in %d cycles = %.2f bits/cycle\n",
		payloadBits, cycles, bitsPerCycle)
	fmt.Fprintf(out, "  @ 78.125 MHz     : %.3f Gb/s goodput (paper line rate: %.1f Gb/s)\n",
		bitsPerCycle*synth.RequiredMHz/1000, float64(cfg.width)*78.125/1000)
	fmt.Fprintf(out, "  @ Virtex-II fmax : %.3f Gb/s (%.1f MHz post-layout)\n",
		bitsPerCycle*fmaxV2/1000, fmaxV2)
	fmt.Fprintf(out, "  escapes inserted : %d octets; tx stalls %d; resync high-water %d/%d octets\n",
		sys.Tx.Escape.Escaped, sys.Tx.Escape.InputStalls,
		sys.Tx.Escape.HighWater(), 4*w)
	fmt.Fprintf(out, "  OAM status       : rx-good=%d rx-bad=%d fcs-err=%d aborts=%d runts=%d\n",
		sys.OAM.Read(p5.RegRxGood), sys.OAM.Read(p5.RegRxBad),
		sys.OAM.Read(p5.RegRxFCSErr), sys.OAM.Read(p5.RegRxAborts),
		sys.OAM.Read(p5.RegRxRunts))
	fmt.Fprintf(out, "  OAM interrupts   : stat=%#x causes=[%s]\n",
		sys.OAM.Read(p5.RegIntStat), causeNames(sys.OAM.Read(p5.RegIntStat)))
	return serveTelemetry(cfg, o, nil, out)
}

// tally counts delivered and rejected frames, printing each one's
// disposition under -v.
func tally(out io.Writer, frames []p5.RxFrame, verbose bool) (good, bad int) {
	for i, f := range frames {
		var what any = f.Frame
		if f.Err != nil {
			bad++
			what = f.Err
		} else {
			good++
		}
		if verbose {
			fmt.Fprintf(out, "frame %4d: %v\n", i, what)
		}
	}
	return good, bad
}

// causeNames decodes an interrupt status word into its mnemonics.
func causeNames(stat uint32) string {
	s := ""
	for _, c := range p5.IntCauseNames {
		if stat&c.Bit != 0 {
			if s != "" {
				s += " "
			}
			s += c.Name
		}
	}
	return s
}

// runSONET is the -sonet pipeline: P5 transmitter → STM-1 section with
// a scripted fault injector → P5 receiver, with the deframer's defect
// monitor wired into the OAM alarm register. Transmit and receive run
// on separate simulations, so their telemetry uses distinct prefixes
// (p5tx/p5rx) plus "sonet" for the section itself.
func runSONET(cfg simConfig, out io.Writer) error {
	w, dist, err := parseCommon(cfg)
	if err != nil {
		return err
	}
	gen := netsim.NewGen(cfg.seed, dist, cfg.density)
	o := observation(cfg)
	reg, tr := o.Registry, o.Tracer

	regs := p5.NewRegs()

	// Transmit: run the P5 transmitter to completion, collecting its
	// line octets.
	txSim := &rtl.Sim{}
	tx := p5.NewTransmitter(txSim, w, regs)
	sink := rtl.NewSink(tx.Out)
	txSim.Add(sink)
	// One mirror for the split assembly: transmitter, receiver and
	// section counters, synced together after the run (nil, and every
	// use below a no-op, without telemetry).
	var tel *telemetry.Mirror
	if reg != nil {
		tel = reg.Mirror()
		txSim.Instrument(reg, "p5tx")
		p5.InstrumentTransmitter(tel, "p5tx", txSim, tx)
	}
	for i := 0; i < cfg.frames; i++ {
		tx.Framer.Enqueue(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: gen.Next()})
	}
	if !txSim.RunUntil(func() bool { return !tx.Busy() && txSim.Drained() }, 200_000_000) {
		return fmt.Errorf("transmitter did not drain")
	}

	// Section: an STM-1 line with the deterministic fault injector on
	// its transmit side.
	line := sink.Data
	nFrames := (len(line)+sonet.STM1.PayloadBytes()-1)/sonet.STM1.PayloadBytes() + 2
	la, lz := sonet.NewLinePair(sonet.STM1)
	df := lz.Deframer()

	rxSim := &rtl.Sim{}
	src := &rtl.Source{}
	rx := p5.NewReceiver(rxSim, w, regs)
	src.Out = rx.In
	rxSim.Add(src)
	if reg != nil {
		rxSim.Instrument(reg, "p5rx")
		p5.InstrumentReceiver(tel, "p5rx", rxSim, rx)
	}
	oam := p5.NewOAM(regs, tx, rx)
	oam.AttachSection(df)
	oam.Write(p5.RegIntMask, p5.IntOOF|p5.IntLOF|p5.IntLOS|p5.IntSDeg|p5.IntSFail)
	if reg != nil {
		df.Instrument(tel, tr, "sonet")
	}

	script := fault.Random(netsim.NewRand(cfg.seed^0xFA17), int64(nFrames*sonet.STM1.FrameBytes()), cfg.faults)
	inj := fault.NewInjector(script)
	la.Inject = inj.Apply
	la.Send(line)
	// The stream's frames, then a recovery tail: enough clean frame times
	// for any line cut still in progress to end and the defect hysteresis
	// to integrate back in.
	tail := cfg.faults.LOSLen/sonet.STM1.FrameBytes() + 40
	for i := 0; i < nFrames+tail; i++ {
		la.Tick(int64(i))
	}

	// Receive: feed the demapped octet stream to the P5 receiver.
	for _, p := range lz.Recv(nil) {
		src.FeedBytes(p, w)
	}
	if !rxSim.RunUntil(func() bool {
		return src.Pending() == 0 && !rx.Busy() && rxSim.Drained()
	}, 200_000_000) {
		return fmt.Errorf("receiver did not drain")
	}
	tel.Sync()
	txSim.SyncTelemetry()
	rxSim.SyncTelemetry()

	good, bad := tally(out, rx.Control.Queue, cfg.verbose)

	fmt.Fprintf(out, "P5 %d-bit over STM-1 SDH section\n", cfg.width)
	fmt.Fprintf(out, "  datagrams        : %d sent, %d delivered, %d rejected\n", cfg.frames, good, bad)
	if len(script.Ops) > 0 {
		fmt.Fprintf(out, "  fault script     : %s\n", script.String())
	} else {
		fmt.Fprintf(out, "  fault script     : (clean line)\n")
	}
	fmt.Fprintf(out, "  injector         : slips +%d/-%d dup=%d los-octets=%d bit-errors=%d\n",
		inj.Stats.Inserted, inj.Stats.Deleted, inj.Stats.Duplicated,
		inj.Stats.LOSOctets, inj.Stats.BitErrors)
	fmt.Fprintf(out, "  section          : frames ok=%d errored=%d resyncs=%d b1=%d b3=%d\n",
		df.FramesOK, df.FramesErrored,
		oam.Read(p5.RegResyncs), oam.Read(p5.RegB1Errors), oam.Read(p5.RegB3Errors))
	fmt.Fprintf(out, "  alarms           : reg=%#x active=[%v] raises=%d clears=%d\n",
		oam.Read(p5.RegAlarm), oam.Alarms(),
		oam.Read(p5.RegDefectRaise), oam.Read(p5.RegDefectClear))
	fmt.Fprintf(out, "  OAM status       : rx-good=%d rx-bad=%d fcs-err=%d aborts=%d runts=%d\n",
		oam.Read(p5.RegRxGood), oam.Read(p5.RegRxBad),
		oam.Read(p5.RegRxFCSErr), oam.Read(p5.RegRxAborts), oam.Read(p5.RegRxRunts))
	fmt.Fprintf(out, "  OAM interrupts   : stat=%#x irq=%v causes=[%s]\n",
		oam.Read(p5.RegIntStat), regs.IRQ(), causeNames(oam.Read(p5.RegIntStat)))
	return serveTelemetry(cfg, o, nil, out)
}

// runProtect is the -protect scenario: two supervised PPP endpoints on
// a 1+1 protected STM-1 pair, a scripted working-line cut under live
// traffic, APS failover, and revert through wait-to-restore. One tick
// = one 125 µs frame time per direction, so the GR-253 50 ms switch
// budget is 400 ticks.
func runProtect(cfg simConfig, out io.Writer) error {
	const (
		fb        = 2430 // STM-1 frame bytes
		warmTicks = 30
		preTicks  = 50
		wtrTicks  = 100
	)
	cut := cfg.cutFrames
	if cut <= 0 {
		cut = 30
	}
	o := observation(cfg)

	lcfg := gigapos.LinkConfig{
		EchoPeriod: 8, EchoMisses: 3,
		Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	pcfg := gigapos.ProtectionConfig{APS: aps.Config{
		Bidirectional: true, Revertive: true, WaitToRestore: wtrTicks,
	}}
	cfgA, cfgB := lcfg, lcfg
	cfgA.Magic, cfgA.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	cfgB.Magic, cfgB.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	a, b := gigapos.NewProtectedPair(cfgA, cfgB, pcfg)
	var w gigapos.Watch
	w.ObservePair(o, "prot", a, b)
	oam := &p5.OAM{Regs: p5.NewRegs()}
	oam.AttachAPS(b.Ctrl)
	oam.Write(p5.RegIntMask, p5.IntAPSSwitch|p5.IntFlightDump|p5.IntSLOBurn|p5.IntProfDump)
	if cfg.profDir != "" {
		// Host-demanded profile snapshots through the OAM register
		// block, alongside the run-wide session capture.
		profDir := cfg.profDir
		oam.AttachProfiler(func() error {
			_, err := prof.WriteSnapshot(profDir, "oam")
			return err
		})
	}

	// The receiving end's dumps and the SLO grading a→b show in the OAM
	// interrupt causes (both nil, and nothing attached, without -flight).
	oam.AttachFlight(b.Flight(), w.SLOs["prot_z"])

	// The scripted per-line scenario: only the a→b working line is cut.
	var wScript, pScript fault.Script
	wScript.LOS(int64(warmTicks+preTicks)*fb, cut*fb)
	pair := fault.NewPair(wScript, pScript)
	a.Line(aps.Working).Inject = pair.Working.Apply
	a.Line(aps.Protect).Inject = pair.Protect.Apply

	var now int64
	tick := func() { now++; a.Advance(now); b.Advance(now) }

	a.Open()
	a.Up()
	b.Open()
	b.Up()
	for i := 0; i < warmTicks; i++ {
		tick()
	}
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		return fmt.Errorf("protected pair did not open")
	}

	// Live traffic a→b: one sequenced datagram per tick.
	var seq, delivered, renegotiated int
	drain := func() {
		for _, d := range b.Received() {
			if len(d.Payload) >= 8 && d.Payload[0] == 0x45 {
				delivered++
			}
		}
		if !b.Opened() || !b.IPReady() {
			renegotiated++
		}
	}
	total := preTicks + cut + wtrTicks + 150
	for i := 0; i < total; i++ {
		seq++
		pl := make([]byte, 40)
		pl[0] = 0x45
		pl[4], pl[5], pl[6], pl[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		if err := a.SendIPv4(pl); err != nil {
			return fmt.Errorf("send %d: %w", seq, err)
		}
		tick()
		drain()
	}

	st := b.Ctrl.Stats
	fmt.Fprintf(out, "1+1 protected PPP over STM-1 (GR-253 linear APS, bidirectional, revertive)\n")
	fmt.Fprintf(out, "  working-line cut : %d frames (%.1f ms of dead line)\n", cut, float64(cut)*0.125)
	fmt.Fprintf(out, "  traffic          : %d sent, %d delivered, %d lost in the switch windows\n",
		seq, delivered, seq-delivered)
	fmt.Fprintf(out, "  aps              : switches=%d to-protect=%d to-working=%d remote-wins=%d\n",
		st.Switches, st.ToProtect, st.ToWorking, st.RemoteWins)
	fmt.Fprintf(out, "  switch time      : %d frame times (budget 400 = 50 ms); selector now on %v\n",
		st.LastSwitchTook, b.Active())
	fmt.Fprintf(out, "  session          : lcp-renegotiations=%d supervisor-restarts=%d (hitless = 0/0)\n",
		renegotiated, b.Supervisor().Restarts)
	fmt.Fprintf(out, "  standby selector : %d payload octets recovered hot and discarded\n",
		b.DiscardedStandbyOctets)
	fmt.Fprintf(out, "  OAM aps regs     : state=%#x rx=%#04x tx=%#04x switches=%d\n",
		oam.Read(p5.RegAPSState), oam.Read(p5.RegAPSRx),
		oam.Read(p5.RegAPSTx), oam.Read(p5.RegAPSSwitches))
	fmt.Fprintf(out, "  OAM interrupts   : stat=%#x irq=%v causes=[%s]\n",
		oam.Read(p5.RegIntStat), oam.Regs.IRQ(), causeNames(oam.Read(p5.RegIntStat)))
	if w.Board != nil {
		fmt.Fprintf(out, "  flight captures  : aps-switch=%d total=%d (p99 %d ticks a→b); OAM RegFlightCtrl=%d\n",
			b.Flight().CapturesFor("aps-switch"), b.Flight().Captures(), a.Flight().P99(),
			oam.Read(p5.RegFlightCtrl))
		flightSummary(out, w.Board, cfg.flightDir)
	}
	return serveTelemetry(cfg, o, w.Board, out)
}
