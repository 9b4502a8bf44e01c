package scenario

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	gigapos "repro"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/sonet"
	"repro/internal/transport"
)

// A socket engine paces itself in wall time so two processes advance
// their keepalive and retry windows at comparable rates.
const (
	socketTick      = 50 * time.Microsecond // per virtual tick
	socketKeepalive = 64                    // keepalive probe period, ticks
)

// runEngine runs the sharded software line card: Links PPP pairs across
// GOMAXPROCS shard workers, every per-frame path allocation-free,
// reporting the delivered frames/s and line rate over Duration steps.
// Over udp or tcp this process runs one half of every pair, supervised
// end to end against a peer p5sim; a blackout escalates into a
// transport-LOS defect and the supervisor renegotiates when the line
// returns. Each pair is graded as the circuit port<i>: what its local
// ends offered against the frames they accepted (the engine's links run
// no echo or LQM, so after bring-up every accepted frame is a datagram),
// supervisor restarts as its renegotiations.
func (s *Scenario) runEngine(rc RunConfig, res *Result) error {
	es, o := s.Engine, rc.Observation
	size, _ := strconv.Atoi(s.Traffic.Mix[len("fixed:"):])
	socket := es.socket()
	cfg := gigapos.EngineConfig{Links: es.Links, PayloadSize: size, Batch: 8}
	var ports []transport.LineTransport
	if socket {
		cfg.Batch = 4
		cfg.Link = gigapos.LinkConfig{Supervise: true, RetryMin: 8, RetryMax: 256}
		cfg.Role = gigapos.RoleA
		if rc.Dial != "" {
			cfg.Role = gigapos.RoleZ
		}
		// Open every socket up front so a bad address fails before the
		// engine spins up.
		for i := 0; i < es.Links; i++ {
			t, err := es.open(rc, i)
			if err != nil {
				for _, t := range ports {
					t.Close()
				}
				return fmt.Errorf("port %d: %w", i, err)
			}
			ports = append(ports, t)
		}
	}
	var chaos *fault.Transport
	cfg.Transport = func(i int) (a, z transport.LineTransport) {
		switch {
		case socket:
			a = ports[i]
		case es.Line == "stm16":
			// The line card behind its PHY: one STM-16 frame per
			// direction per step.
			a, z = sonet.NewLinePair(sonet.STM16)
		default:
			a, z = transport.NewPipePair()
		}
		if i == 0 && len(s.Events) > 0 {
			chaos = fault.WrapTransport(a)
			a = chaos
		}
		if cfg.Role == gigapos.RoleZ {
			a, z = nil, a
		}
		return a, z
	}
	e := gigapos.NewEngine(cfg)
	defer e.Close()
	w := e.Observe(o, "linecard")
	res.Board = w.Board
	if socket {
		res.Status = transport.NewStatusBoard()
		e.EachTransport(res.Status.Add)
		// Socket transports always speak the v2 latency-tracing header, so
		// the fleet board can trust the armed flags it scrapes.
		res.Status.SetInfo(o.Flight != nil, o.Profile != nil, true)
	}

	budget := s.BringUpBudget
	if budget == 0 {
		budget = 4000
	}
	step := func(n int) { e.Run(n) }
	if socket {
		step = func(n int) {
			for ; n > 0; n-- {
				e.Run(1)
				time.Sleep(socketTick)
			}
		}
		for t := int64(0); t < budget && !e.Ready(); t++ {
			step(1)
		}
	} else {
		e.BringUp(int(budget))
	}
	if !e.Ready() {
		res.Failures = append(res.Failures, Failure{Msg: "bring-up: " + e.BringUp(8).String()})
		return s.conclude(rc, res)
	}
	res.BringUpTicks = int64(e.Stats().Steps)
	if !socket {
		e.Run(32) // settle buffers at steady-state capacity
	}
	start := e.Stats()
	windows := map[string][2]int64{} // stall, blackout: [from, to) after convergence
	for _, ev := range s.Events {
		w := [2]int64{ev.At, ev.At + ev.span(s.Duration)}
		windows[ev.Action] = w
		if base := int64(start.Steps); ev.Action == "stall" {
			chaos.Stall(base+w[0], base+w[1])
		} else {
			chaos.Blackout(base+w[0], base+w[1])
		}
	}
	// tally adds sign × each port's local-end counters to its report: -1
	// before the measured steps and +1 after leaves the run's own.
	res.Circuits = make([]CircuitReport, es.Links)
	tally := func(sign int) {
		for i := range res.Circuits {
			a, z := e.Port(i)
			for _, l := range []*gigapos.Link{a, z} {
				if l != nil {
					res.Circuits[i].RenegA += sign * int(l.Supervisor().Restarts)
					res.Circuits[i].Received += sign * int(l.RxFrames)
					res.Circuits[i].RxErrors += sign * int(l.RxErrors)
				}
			}
		}
	}
	tally(-1)
	cut0, steps := e.TransportStats().TxChunks, int(s.Duration)
	t0 := time.Now()
	step(steps)
	elapsed := time.Since(t0)
	st, ts := e.Stats(), e.TransportStats()
	tally(+1)
	restarts := 0
	for i := range res.Circuits {
		a, z := e.Port(i)
		rep := &res.Circuits[i]
		rep.Name = fmt.Sprintf("port%d", i)
		rep.Sent = steps * cfg.Batch * 2 // a batch per step from each local end
		if socket {
			rep.Sent /= 2
		}
		rep.DownA, rep.DownB = !a.IPReady(), z != nil && !z.IPReady()
		restarts += rep.RenegA
	}
	s.grade(res)

	delivered := st.Datagrams - start.Datagrams
	payload := st.PayloadBytes - start.PayloadBytes
	secs := elapsed.Seconds()
	out := rc.Out
	var captures uint64
	if socket {
		role := map[bool]string{false: "A", true: "Z"}[cfg.Role == gigapos.RoleZ]
		fmt.Fprintf(out, "Socket line-card (role %s, %s)\n", role, es.Line)
		fmt.Fprintf(out, "  topology         : %d links on %d shards; keepalive every %d ticks; %v/tick\n",
			st.Links, st.Shards, socketKeepalive, socketTick)
		if chaos != nil {
			fmt.Fprintf(out, "  chaos            : stall=[%d:%d) blackout=[%d:%d) ticks after convergence (dropped=%d)\n",
				windows["stall"][0], windows["stall"][1], windows["blackout"][0], windows["blackout"][1], chaos.Dropped())
		}
		fmt.Fprintf(out, "  delivered        : %d datagrams, %d payload octets in %d steps (%.1fs)\n",
			delivered, payload, steps, secs)
		fmt.Fprintf(out, "  transport        : tx=%d rx=%d chunks; reconnects=%d resets=%d probes=%d misses=%d\n",
			ts.TxChunks, ts.RxChunks, ts.Reconnects, ts.Resets, ts.KeepaliveProbes, ts.KeepaliveMisses)
		fmt.Fprintf(out, "  backpressure     : tx-dropped=%d rx-dropped=%d queue-high-water=%d\n",
			ts.TxDropped, ts.RxDropped, ts.QueueHighWater)
		fmt.Fprintf(out, "  session          : lcp-renegotiations=%d rx-errors=%d\n", restarts, st.RxErrors)
		// Wire-level latency from port 0's transport: one-way percentiles
		// from the sampled wall stamps, RTT from keepalive probes.
		var lat transport.Latency
		if lm, ok := ports[0].(transport.LatencyMeter); ok {
			lat = lm.Latency()
			fmt.Fprintf(out, "  latency          : oneway p50=%dµs p99=%dµs (%d samples); rtt p50=%dµs (%d probes); clock offset %+dns\n",
				lat.OneWayP50US, lat.OneWayP99US, lat.Samples, lat.RTTP50US, lat.RTTSamples, lat.ClockOffsetNS)
		}
		if w.Board != nil {
			captures = flightLine(out, w.Board, o.Flight.Dir)
		}
		// The one-line machine-readable summary.
		fmt.Fprintf(out, "NET-REPORT role=%s transport=%s links=%d steps=%d delivered=%d rx_errors=%d renegotiations=%d reconnects=%d resets=%d tx_dropped=%d rx_dropped=%d captures=%d oneway_p50_us=%d oneway_p99_us=%d rtt_p50_us=%d\n",
			role, es.Line, st.Links, steps, delivered, st.RxErrors,
			restarts, ts.Reconnects, ts.Resets, ts.TxDropped, ts.RxDropped, captures,
			lat.OneWayP50US, lat.OneWayP99US, lat.RTTP50US)
		return s.conclude(rc, res)
	}
	line := st.LineBytes - start.LineBytes
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
	if es.Line == "stm16" {
		cut := ts.TxChunks - cut0
		fmt.Fprintf(out, "  SONET lines      : %d STM-16 sections, %d frames cut = %.3f Gb/s of SDH line; queue high-water %d octets\n",
			2*st.Links, cut, float64(cut)*float64(sonet.STM16.FrameBytes())*8/secs/1e9, ts.QueueHighWater)
		fmt.Fprintf(out, "  session          : %d/%d datagrams delivered, lcp-renegotiations=%d\n",
			delivered, uint64(steps*st.Links*2*cfg.Batch), restarts)
	}
	if w.Profile != nil {
		sum := w.Profile.Summary()
		fmt.Fprintf(out, "  stage profile    : %d shards, %d/%d steps sampled, shard imbalance %d‰\n",
			sum.Shards, sum.Sampled, sum.Steps, sum.ImbalancePerMille)
		for st := prof.Stage(0); int(st) < prof.NumStages; st++ {
			if sum.StageCount[st] > 0 {
				fmt.Fprintf(out, "    %-9s: %8.0f ns/step (%d samples)\n", st, sum.PerStep(st), sum.StageCount[st])
			}
		}
	}
	if w.Board != nil {
		flightLine(out, w.Board, o.Flight.Dir)
	}
	return s.conclude(rc, res)
}

// open opens pair i's socket: bound at the listen address or dialling
// the peer's, port + i.
func (es *EngineSpec) open(rc RunConfig, i int) (transport.LineTransport, error) {
	addr, _ := portAddr(rc.Listen+rc.Dial, i) // Check validated it
	listen, dial := addr, ""
	if rc.Dial != "" {
		listen, dial = "", addr
	}
	tcfg := transport.Config{KeepalivePeriod: socketKeepalive, RetryMin: 8, RetryMax: 256}
	if es.Line == "tcp" {
		return transport.NewTCP(transport.TCPConfig{Config: tcfg, ListenAddr: listen, DialAddr: dial})
	}
	return transport.NewUDP(transport.UDPConfig{Config: tcfg, ListenAddr: listen, DialAddr: dial})
}
