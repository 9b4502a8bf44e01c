// Command p5sim runs a scenario: one JSON document that names a topology
// — the cycle-accurate P5 in loopback or over an STM-1 section, a 1+1
// protected pair, the sharded line-card engine over pipes, STM-16 lines
// or sockets, or a SONET ring — with its traffic, its scripted faults and
// the assertions it is graded on (internal/scenario, DESIGN.md §12; the
// committed ones live under scenarios/). p5sim prints the report and the
// verdict, and exits 1 when an assertion fails, 2 on a bad invocation.
//
// The flags say only where the run happens and what watches it. A flag
// the topology cannot use is a usage error naming the topology.
//
//	-listen HOST:PORT  run the listening half of a udp or tcp engine (pair i on PORT+i)
//	-dial HOST:PORT    run the dialling half against a peer p5sim's -listen
//	-telemetry ADDR    after the report, serve the Prometheus exposition at
//	                   /metrics (the one state document: SLO burn rates and
//	                   flight counts included), Go profiles under
//	                   /debug/pprof/ and the event trace at /trace (slow-frame
//	                   latency exemplars included) — and on a socket engine
//	                   /health, answered from the transport_up series; scrape
//	                   with p5stat or curl, ^C to exit
//	-flight DIR        arm the always-on flight recorder on every PPP end:
//	                   latency histograms of each joined pair, SLO burn gauges,
//	                   black-box .p5fr captures (p5trace -capture) in DIR on
//	                   every defect escalation, APS switch, FCS burst or
//	                   supervisor restart (the ring and the protected pair
//	                   always record; without -flight their captures land in
//	                   a fresh $TMPDIR/p5sim-scenario-*, removed at exit when
//	                   nothing was captured)
//	-prof DIR          capture CPU, heap, allocs, mutex, block and goroutine
//	                   profiles of the run into DIR (go tool pprof); an engine
//	                   also arms its per-shard stage clock (the report's stage
//	                   table, prof_* in /metrics), every capture drops a tagged
//	                   snapshot beside it, and the protected pair's OAM block
//	                   can demand one through RegProfCtrl
//
// Every end the run arms is named <pair>_a or <pair>_z in every series,
// recorder and capture file. Whenever telemetry is armed, runtime/metrics
// (GC pauses, scheduler latency, goroutine count) and the process uptime
// join as runtime_* gauges.
//
// Usage:
//
//	p5sim [-listen HOST:PORT | -dial HOST:PORT] [-telemetry ADDR] [-flight DIR] [-prof DIR] SCENARIO.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	gigapos "repro"
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// simConfig is one p5sim invocation, decoupled from flag parsing so
// tests can drive run() directly.
type simConfig struct {
	scenario      string // the document to run
	listen, dial  string // a socket engine's half
	telemetryAddr string // serve the exposition after the run (":0" picks a port)
	flightDir     string // arm the flight recorder, captures here
	profDir       string // capture runtime profiles here, arm the stage clock

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
	flag.StringVar(&cfg.listen, "listen", "", "run the listening half of a udp or tcp engine, binding HOST:PORT (pair i on PORT+i)")
	flag.StringVar(&cfg.dial, "dial", "", "run the dialling half of a udp or tcp engine against the peer's HOST:PORT")
	flag.StringVar(&cfg.telemetryAddr, "telemetry", "", "serve /metrics, /debug/pprof/, /trace on this address after the run")
	flag.StringVar(&cfg.flightDir, "flight", "", "arm the flight recorder on every PPP end; write .p5fr captures to this directory")
	flag.StringVar(&cfg.profDir, "prof", "", "capture CPU/heap/mutex/block profiles of the run into this directory; an engine arms its stage clock")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: p5sim [-listen HOST:PORT | -dial HOST:PORT] [-telemetry ADDR] [-flight DIR] [-prof DIR] SCENARIO.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.scenario = flag.Arg(0)
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p5sim:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run loads the scenario, places it where cfg says, runs it and, with
// telemetry, serves what it armed.
func run(cfg simConfig, out io.Writer) error {
	s, err := scenario.Load(cfg.scenario)
	if err != nil {
		return usageError(err.Error())
	}
	o := observation(cfg)
	rc := scenario.RunConfig{Observation: o, Listen: cfg.listen, Dial: cfg.dial, ProfDir: cfg.profDir, Out: out}
	if err := s.Check(rc); err != nil {
		return usageError(err.Error())
	}
	// Create the directory up front so a missing one is a loud startup
	// error; a capture write that fails later is counted and reported.
	dir := cfg.flightDir
	if dir != "" {
		err = os.MkdirAll(dir, 0o755)
	} else if s.Ring != nil || s.Protected != nil {
		// These ends always record: land the evidence somewhere, and
		// take the directory away at exit if nothing landed in it
		// (os.Remove refuses a non-empty one).
		dir, err = os.MkdirTemp("", "p5sim-scenario-*")
		defer os.Remove(dir)
		rc.Observation.Flight = &flight.Config{Dir: dir}
	}
	if err != nil {
		return fmt.Errorf("-flight: %w", err)
	}
	var session *prof.Session
	if cfg.profDir != "" {
		if session, err = prof.StartSession(cfg.profDir); err != nil {
			return fmt.Errorf("-prof: %w", err)
		}
		if f := rc.Observation.Flight; f != nil {
			// Every black-box dump drops a tagged profile snapshot beside it.
			f.Profiler = func(c *flight.Capture) {
				prof.WriteSnapshot(cfg.profDir, fmt.Sprintf("flight-%s-%d", c.Reason, c.Seq))
			}
		}
	}
	// After the report and the verdict, while the topology is still up:
	// the profile files, then the endpoint (which may linger forever).
	rc.Live = func(*scenario.Result) error {
		if session != nil {
			files, err := session.Stop()
			if err != nil {
				return fmt.Errorf("-prof: %w", err)
			}
			fmt.Fprintf(out, "  profiles         : %d written to %s (go tool pprof %s/cpu.pprof)\n",
				len(files), cfg.profDir, cfg.profDir)
		}
		return serveTelemetry(cfg, o, out)
	}
	res, err := s.Run(rc)
	if err != nil {
		return err
	}
	if !res.Pass && dir != "" {
		return fmt.Errorf("scenario %q failed %d assertion(s); flight captures in %s", res.Scenario, len(res.Failures), dir)
	} else if !res.Pass {
		return fmt.Errorf("scenario %q failed %d assertion(s)", res.Scenario, len(res.Failures))
	}
	return nil
}

// observation is what the run watches: -telemetry (or a test's scrape
// hook) sets the registry and tracer, -flight the recorder, -prof the
// stage clock.
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
	}
	return o
}

// serveTelemetry starts the exposition endpoint after a run, mounting
// /health over the registry's transport_up series on a socket engine.
// With a scrape hook the server lives only for the hook call; otherwise
// it lingers until the process is killed so the operator can attach
// p5stat, curl /metrics, or pull a profile.
func serveTelemetry(cfg simConfig, o gigapos.Observation, out io.Writer) error {
	reg := o.Registry
	if reg == nil {
		return nil
	}
	addr := cfg.telemetryAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	mux := telemetry.Mux(reg, o.Tracer)
	endpoints := "/debug/pprof/ /trace"
	if cfg.listen != "" || cfg.dial != "" {
		mux.HandleFunc("/health", transport.Health(reg))
		endpoints += " /health"
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
