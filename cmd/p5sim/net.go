package main

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	gigapos "repro"
	"repro/internal/fault"
	"repro/internal/transport"
)

// netConfig is the -listen/-dial socket line-card mode: this process
// runs one half of the link pairs and interconnects with a peer p5sim
// over real UDP or TCP sockets. Link i uses base port + i.
type netConfig struct {
	listen string // bind address (the A half)
	dial   string // peer address (the Z half)
	proto  string // "udp" or "tcp"

	// keepalive is the probe period in virtual ticks (misses fixed at
	// the transport default of 3).
	keepalive int64
	// tickUS paces the engine: microseconds of wall time per virtual
	// tick, so two processes advance their keepalive and retry windows
	// at comparable rates.
	tickUS int

	// stall/blackout, when To > From, script a chaos window on port 0's
	// local transport, in ticks relative to the start of the measured
	// phase. A stall holds data chunks and releases them when the
	// window ends (keepalives keep flowing — the link must ride it out
	// without an LCP renegotiation); a blackout cuts the line entirely
	// and must escalate into a transport-LOS defect.
	stallFrom, stallTo       int64
	blackoutFrom, blackoutTo int64
}

// parseWindow parses a "FROM:TO" tick window ("" = none).
func parseWindow(s string) (from, to int64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want FROM:TO, got %q", s)
	}
	if from, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, err
	}
	if to, err = strconv.ParseInt(b, 10, 64); err != nil {
		return 0, 0, err
	}
	if to <= from || from < 0 {
		return 0, 0, fmt.Errorf("want 0 <= FROM < TO, got %q", s)
	}
	return from, to, nil
}

// portAddr shifts the port of host:port by i, so link i gets its own
// socket pair.
func portAddr(addr string, i int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", err
	}
	return net.JoinHostPort(host, strconv.Itoa(p+i)), nil
}

// netTransport opens one line transport endpoint for the given role.
func netTransport(nc netConfig, tcfg transport.Config, i int) (transport.LineTransport, error) {
	if nc.proto == "tcp" {
		c := transport.TCPConfig{Config: tcfg}
		var err error
		if nc.listen != "" {
			if c.ListenAddr, err = portAddr(nc.listen, i); err != nil {
				return nil, err
			}
		} else {
			if c.DialAddr, err = portAddr(nc.dial, i); err != nil {
				return nil, err
			}
		}
		return transport.NewTCP(c)
	}
	c := transport.UDPConfig{Config: tcfg}
	var err error
	if nc.listen != "" {
		if c.ListenAddr, err = portAddr(nc.listen, i); err != nil {
			return nil, err
		}
	} else {
		if c.DialAddr, err = portAddr(nc.dial, i); err != nil {
			return nil, err
		}
	}
	return transport.NewUDP(c)
}

// runNet is the -listen/-dial mode: this process's half of the link
// pairs brought up against a peer p5sim across real sockets, with
// optional scripted transport chaos, then a measured traffic phase.
// The NET-REPORT line at the end is machine-greppable (verify.sh's
// transport smoke gate parses it).
func runNet(cfg simConfig, nc netConfig, out io.Writer) error {
	if (nc.listen == "") == (nc.dial == "") {
		return usageError("network mode needs exactly one of -listen or -dial")
	}
	if nc.proto != "udp" && nc.proto != "tcp" {
		return usageError("-net-transport must be udp or tcp")
	}
	links := cfg.engineLinks
	if links <= 0 {
		links = 1
	}
	size := 256
	if cfg.size != "imix" {
		n, err := strconv.Atoi(cfg.size)
		if err != nil || n <= 0 {
			return usageError("bad -size: want a positive byte count")
		}
		size = n
	}
	steps := cfg.frames
	if steps <= 0 {
		steps = 2000
	}
	role, roleName := gigapos.RoleA, "A"
	if nc.dial != "" {
		role, roleName = gigapos.RoleZ, "Z"
	}

	// Build the transports up front so a bad address fails before the
	// engine spins up, and so port 0's endpoint can be wrapped in the
	// chaos adapter.
	tcfg := transport.Config{KeepalivePeriod: nc.keepalive, RetryMin: 8, RetryMax: 256}
	endpoints := make([]transport.LineTransport, links)
	for i := range endpoints {
		t, err := netTransport(nc, tcfg, i)
		if err != nil {
			return fmt.Errorf("port %d: %w", i, err)
		}
		endpoints[i] = t
	}
	var chaos *fault.Transport
	wantChaos := nc.stallTo > nc.stallFrom || nc.blackoutTo > nc.blackoutFrom
	if wantChaos {
		chaos = fault.WrapTransport(endpoints[0])
		endpoints[0] = chaos
	}

	e := gigapos.NewEngine(gigapos.EngineConfig{
		Links:       links,
		Shards:      cfg.engineShards,
		PayloadSize: size,
		Batch:       4,
		Role:        role,
		Link: gigapos.LinkConfig{
			Supervise: true, RetryMin: 8, RetryMax: 256,
			// Real sockets put multiple ticks of latency under every
			// control round trip; the RFC default restart timer would
			// retire each request before its ack lands.
			RestartPeriod: 24,
		},
		Transport: func(port int) (a, z transport.LineTransport) {
			if role == gigapos.RoleZ {
				return nil, endpoints[port]
			}
			return endpoints[port], nil
		},
	})
	defer e.Close()

	o := observation(cfg)
	board := e.Observe(o, "linecard").Board
	status := transport.NewStatusBoard()
	e.EachTransport(status.Add)
	cfg.mountExtra = status.Mount
	// Socket transports always speak the v2 latency-tracing header, so
	// the fleet board can trust the armed flags it scrapes.
	status.SetInfo(cfg.flightDir != "", cfg.profDir != "", true)

	// Bring-up against the live peer: wall-clock bounded, since the
	// peer process may still be starting.
	tick := time.Duration(nc.tickUS) * time.Microsecond
	deadline := time.Now().Add(30 * time.Second)
	for !e.Ready() {
		if time.Now().After(deadline) {
			// One more short BringUp round enumerates the ports that
			// failed, so the error names them.
			return fmt.Errorf("no convergence with peer after 30s (%s)", e.BringUp(8))
		}
		e.Run(1)
		time.Sleep(tick)
	}

	// Measured phase: program the chaos windows relative to now, then
	// run the scripted steps.
	base := int64(e.Stats().Steps)
	if chaos != nil {
		if nc.stallTo > nc.stallFrom {
			chaos.Stall(base+nc.stallFrom, base+nc.stallTo)
		}
		if nc.blackoutTo > nc.blackoutFrom {
			chaos.Blackout(base+nc.blackoutFrom, base+nc.blackoutTo)
		}
	}
	restarts0 := sumRestarts(e, links)
	start := e.Stats()
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		e.Run(1)
		time.Sleep(tick)
	}
	elapsed := time.Since(t0)
	st := e.Stats()
	ts := e.TransportStats()
	delivered := st.Datagrams - start.Datagrams
	payload := st.PayloadBytes - start.PayloadBytes
	renegotiations := sumRestarts(e, links) - restarts0

	fmt.Fprintf(out, "Socket line-card (role %s, %s)\n", roleName, nc.proto)
	fmt.Fprintf(out, "  topology         : %d links on %d shards; keepalive every %d ticks; %v/tick\n",
		st.Links, st.Shards, nc.keepalive, tick)
	if chaos != nil {
		fmt.Fprintf(out, "  chaos            : stall=[%d:%d) blackout=[%d:%d) ticks after convergence (dropped=%d)\n",
			nc.stallFrom, nc.stallTo, nc.blackoutFrom, nc.blackoutTo, chaos.Dropped())
	}
	fmt.Fprintf(out, "  delivered        : %d datagrams, %d payload octets in %d steps (%.1fs)\n",
		delivered, payload, steps, elapsed.Seconds())
	fmt.Fprintf(out, "  transport        : tx=%d rx=%d chunks; reconnects=%d resets=%d probes=%d misses=%d\n",
		ts.TxChunks, ts.RxChunks, ts.Reconnects, ts.Resets, ts.KeepaliveProbes, ts.KeepaliveMisses)
	fmt.Fprintf(out, "  backpressure     : tx-dropped=%d rx-dropped=%d queue-high-water=%d\n",
		ts.TxDropped, ts.RxDropped, ts.QueueHighWater)
	fmt.Fprintf(out, "  session          : lcp-renegotiations=%d rx-errors=%d\n",
		renegotiations, st.RxErrors)
	// Wire-level latency from port 0's transport: one-way percentiles
	// from the sampled wall stamps, RTT from keepalive probes.
	var lat transport.Latency
	if lm, ok := endpoints[0].(transport.LatencyMeter); ok {
		lat = lm.Latency()
		fmt.Fprintf(out, "  latency          : oneway p50=%dµs p99=%dµs (%d samples); rtt p50=%dµs (%d probes); clock offset %+dns\n",
			lat.OneWayP50US, lat.OneWayP99US, lat.Samples, lat.RTTP50US, lat.RTTSamples, lat.ClockOffsetNS)
	}
	var captures uint64
	if board != nil {
		captures = flightSummary(out, board, cfg.flightDir)
	}
	// The one-line machine-readable summary: scripts assert on this.
	fmt.Fprintf(out, "NET-REPORT role=%s transport=%s links=%d steps=%d delivered=%d rx_errors=%d renegotiations=%d reconnects=%d resets=%d tx_dropped=%d rx_dropped=%d captures=%d oneway_p50_us=%d oneway_p99_us=%d rtt_p50_us=%d\n",
		roleName, nc.proto, links, steps, delivered, st.RxErrors,
		renegotiations, ts.Reconnects, ts.Resets, ts.TxDropped, ts.RxDropped, captures,
		lat.OneWayP50US, lat.OneWayP99US, lat.RTTP50US)
	return serveTelemetry(cfg, o, board, out)
}

// sumRestarts totals supervisor restarts across this process's local
// link endpoints.
func sumRestarts(e *gigapos.Engine, links int) uint64 {
	var n uint64
	for i := 0; i < links; i++ {
		a, z := e.Port(i)
		if a != nil {
			n += a.Supervisor().Restarts
		}
		if z != nil {
			n += z.Supervisor().Restarts
		}
	}
	return n
}
