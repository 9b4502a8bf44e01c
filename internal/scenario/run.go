package scenario

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	gigapos "repro"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/netsim"
)

// RunConfig says where a scenario runs: what watches it, where a
// socket-backed engine's half sits, and where the report goes.
type RunConfig struct {
	// Observation arms the run's ends and, with a Registry, the P5
	// model's own probes. Its SLO is the scenario's; the ring's and the
	// protected pair's ends always record (a nil Flight records in
	// memory, and a failure report then names no capture files).
	Observation gigapos.Observation
	// Listen or Dial places a udp or tcp engine's half: bind or connect
	// HOST:PORT, pair i on PORT+i. Exactly one, and only there.
	Listen, Dial string
	// ProfDir receives the profile snapshots the protected pair's OAM
	// block demands through RegProfCtrl ("" = none).
	ProfDir string
	// Out receives the report (nil discards it).
	Out io.Writer
	// Live, when set, is called with the graded result while the
	// topology is still up — a socket engine's transports open — before
	// Run tears it down; its error is Run's.
	Live func(*Result) error
}

// Result is the graded outcome of a run.
type Result struct {
	Scenario     string
	Pass         bool
	Failures     []Failure
	Circuits     []circuitReport
	BringUpTicks int64
	Resyncs      uint64 // frame-alignment reacquisitions after traffic start
	// CapturePaths lists every .p5fr written during the run (failure
	// triggers and protection-switch dumps alike), oldest first.
	CapturePaths []string

	// recs and slos are the flight recorders and SLOs the run armed
	// (none without Flight), read by the report's flight lines.
	recs []*flight.Recorder
	slos map[string]*flight.SLO
}

// Failure is one violated assertion.
type Failure struct {
	Circuit string // "" for global assertions
	Msg     string
}

// circuitReport is the measured behaviour of one circuit.
type circuitReport struct {
	Name                 string
	Sent, Received       int
	Corrupted, Lost      int
	RxErrors             int // damaged frames discarded after bring-up, both ends
	SwitchesA, SwitchesB uint64
	FailoverA, FailoverB int64 // longest outage a switch healed, per end
	RenegA, RenegB       int   // LCP renegotiations after bring-up
	DownA, DownB         bool  // no live path at end of run
	AlarmA, AlarmB       bool  // SLO alarm state at end of run
}

// summary renders a one-line digest for reports and logs.
func (c circuitReport) summary() string {
	return fmt.Sprintf("%s: sent=%d recv=%d corrupt=%d lost=%d switches=%d/%d failover=%d/%d reneg=%d/%d down=%v/%v alarm=%v/%v",
		c.Name, c.Sent, c.Received, c.Corrupted, c.Lost,
		c.SwitchesA, c.SwitchesB, c.FailoverA, c.FailoverB,
		c.RenegA, c.RenegB, c.DownA, c.DownB, c.AlarmA, c.AlarmB)
}

// Run builds the scenario's topology, brings it up, injects the scripted
// faults under load, prints the report to rc.Out and grades the
// assertions. The error return covers only where the run was placed
// (Check) and what the host or the model refuses (a socket that will not
// open, a P5 that never drains); a failed bring-up or assertion is a
// Failure.
func (s *Scenario) Run(rc RunConfig) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := s.Check(rc); err != nil {
		return nil, err
	}
	if rc.Out == nil {
		rc.Out = io.Discard
	}
	rc.Observation.SLO = flight.SLOConfig(s.SLO) // field for field
	if rc.Observation.Flight == nil && (s.Ring != nil || s.Protected != nil) {
		rc.Observation.Flight = &flight.Config{}
	}
	fmt.Fprintf(rc.Out, "Chaos drill %q\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(rc.Out, "  drill            : %s\n", s.Description)
	}
	run := s.runP5
	switch {
	case s.Ring != nil:
		run = s.runRing
	case s.Protected != nil:
		run = s.runProtected
	case s.Engine != nil:
		run = s.runEngine
	}
	res := &Result{Scenario: s.Name}
	if err := run(rc, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Check rejects a RunConfig that places the scenario where its topology
// cannot run: a flight recorder on the P5 model, which has no PPP ends,
// and a listen or dial address anywhere but a udp or tcp engine, which
// needs exactly one well-formed address.
func (s *Scenario) Check(rc RunConfig) error {
	sh, err := s.shape()
	if err != nil {
		return err
	}
	addr := rc.Listen + rc.Dial
	switch {
	case s.P5 != nil && rc.Observation.Flight != nil:
		return fmt.Errorf("a flight recorder needs PPP ends; the %s topology has none", sh.name)
	case s.Engine == nil || !s.Engine.socket():
		if addr != "" {
			return fmt.Errorf("a listen or dial address needs a udp or tcp engine; the %s topology has no socket", sh.name)
		}
		return nil
	case rc.Listen != "" && rc.Dial != "" || addr == "":
		return fmt.Errorf("the %s topology needs exactly one of a listen or a dial address", sh.name)
	}
	_, err = portAddr(addr, s.Engine.Links-1)
	return err
}

// portAddr shifts the port of host:port by i, so pair i gets its own
// socket pair.
func portAddr(addr string, i int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 || p+i > 65535 {
		return "", fmt.Errorf("bad port in %q", addr)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+i)), nil
}

// grade evaluates the circuit assertions against the measured reports.
func (s *Scenario) grade(res *Result) {
	fail := func(circuit, format string, args ...any) {
		res.Failures = append(res.Failures, Failure{Circuit: circuit, Msg: fmt.Sprintf(format, args...)})
	}
	for _, a := range s.Assert.Circuits {
		for _, rep := range res.Circuits {
			if a.Circuit != "" && a.Circuit != rep.Name {
				continue
			}
			name := rep.Name
			switches := rep.SwitchesA + rep.SwitchesB
			if a.Switches != nil && switches != *a.Switches {
				fail(name, "selector switches = %d, want exactly %d", switches, *a.Switches)
			}
			if a.MaxSwitches != nil && switches > *a.MaxSwitches {
				fail(name, "selector switches = %d, want ≤ %d", switches, *a.MaxSwitches)
			}
			if a.MaxFailoverTicks != nil {
				fo := max(rep.FailoverA, rep.FailoverB)
				if fo > *a.MaxFailoverTicks {
					fail(name, "protection switch healed a %d-tick outage, budget %d", fo, *a.MaxFailoverTicks)
				}
			}
			if a.LCPRenegotiations != nil && rep.RenegA+rep.RenegB != *a.LCPRenegotiations {
				fail(name, "LCP renegotiations = %d, want %d", rep.RenegA+rep.RenegB, *a.LCPRenegotiations)
			}
			if a.Corrupted != nil && rep.Corrupted != *a.Corrupted {
				fail(name, "corrupted datagrams = %d, want %d", rep.Corrupted, *a.Corrupted)
			}
			if a.MinDeliveryRatio != nil {
				ratio := 1.0
				if rep.Sent > 0 {
					ratio = float64(rep.Received) / float64(rep.Sent)
				}
				if ratio < *a.MinDeliveryRatio {
					fail(name, "delivery ratio %.3f (%d of %d), want ≥ %.3f", ratio, rep.Received, rep.Sent, *a.MinDeliveryRatio)
				}
			}
			if a.RxErrors != nil && rep.RxErrors != *a.RxErrors {
				fail(name, "rx errors = %d, want %d", rep.RxErrors, *a.RxErrors)
			}
			if a.Down != nil {
				down := rep.DownA || rep.DownB
				if down != *a.Down {
					fail(name, "squelched = %v (a=%v b=%v), want %v", down, rep.DownA, rep.DownB, *a.Down)
				}
			}
			if a.SLOGreen != nil && *a.SLOGreen && (rep.AlarmA || rep.AlarmB) {
				fail(name, "SLO alarm raised (a=%v b=%v), want green", rep.AlarmA, rep.AlarmB)
			}
		}
	}
	if s.Assert.MinResyncs != nil && res.Resyncs < *s.Assert.MinResyncs {
		fail("", "resyncs = %d, want ≥ %d", res.Resyncs, *s.Assert.MinResyncs)
	}
	res.Pass = len(res.Failures) == 0
}

// conclude prints the verdict and hands the run — still up — to
// rc.Live. Every topology's run ends here.
func (s *Scenario) conclude(rc RunConfig, res *Result) error {
	out := rc.Out
	res.Pass = len(res.Failures) == 0
	if res.Pass {
		fmt.Fprintf(out, "  verdict          : PASS (%d assertions held)\n", s.Assert.count())
	} else {
		fmt.Fprintf(out, "  verdict          : FAIL\n")
		for _, f := range res.Failures {
			name := f.Circuit
			if name == "" {
				name = "(global)"
			}
			fmt.Fprintf(out, "    FAIL %-10s %s\n", name, f.Msg)
		}
		for _, p := range res.CapturePaths {
			fmt.Fprintf(out, "    capture %s\n", p)
		}
	}
	if rc.Live == nil {
		return nil
	}
	return rc.Live(res)
}

// dist decodes the traffic mix specification.
func (t trafficSpec) dist() (netsim.SizeDist, error) {
	mix := t.Mix
	if mix == "" {
		mix = "imix"
	}
	size := func(s string) (int, bool) {
		n, err := strconv.Atoi(s)
		return n, err == nil && n >= 12 && n <= 1500
	}
	switch {
	case mix == "imix":
		return netsim.IMIX{}, nil
	case strings.HasPrefix(mix, "fixed:"):
		if n, ok := size(mix[len("fixed:"):]); ok {
			return netsim.Fixed(n), nil
		}
		return nil, fmt.Errorf("bad traffic mix %q (want fixed:N, 12 ≤ N ≤ 1500)", mix)
	case strings.HasPrefix(mix, "uniform:"):
		lo, hi, _ := strings.Cut(mix[len("uniform:"):], ":")
		if l, ok := size(lo); ok {
			if h, ok := size(hi); ok && h >= l {
				return netsim.Uniform{Min: l, Max: h}, nil
			}
		}
		return nil, fmt.Errorf("bad traffic mix %q (want uniform:MIN:MAX, 12 ≤ MIN ≤ MAX ≤ 1500)", mix)
	}
	return nil, fmt.Errorf("unknown traffic mix %q", mix)
}

// seed is the traffic generator's seed (default 1).
func (t trafficSpec) seed() uint64 {
	if t.Seed == 0 {
		return 1
	}
	return t.Seed
}

// span is how many ticks e lasts in a run of duration ticks.
func (e event) span(duration int64) int64 {
	if e.Ticks == 0 {
		return duration - e.At
	}
	return e.Ticks
}

// fault adds e's line fault to sc, a line that carries fb octets a tick
// from traffic start, in a run of duration ticks; dir tells a fibre's
// two directions' noise apart.
func (e event) fault(sc *fault.Script, fb, duration int64, dir uint64) {
	ticks := e.span(duration)
	switch at := e.At * fb; e.Action {
	case "cut":
		sc.LOS(at, int(ticks*fb))
	case "noise":
		sc.Noise(at, int(ticks*fb), e.Rate, e.Seed+dir+1)
	case "slip":
		sc.Insert(at, 0)
	case "dup":
		sc.Duplicate(at, 16)
	}
}

// flightLine renders the one-line flight report of a run: aggregate
// frames tracked/lost, captures dumped (returned), and the worst SLO
// burn — plus the capture-error line when files failed to land.
func flightLine(out io.Writer, res *Result, dir string) (captures uint64) {
	var tracked, lost uint64
	for _, r := range res.recs {
		tracked += r.Tracked()
		lost += r.Lost()
		captures += r.Captures()
	}
	worst, alarm := worstBurn(res.slos)
	fmt.Fprintf(out, "  flight           : tracked=%d lost=%d captures=%d worst-burn=%.2f alarm=%v dir=%s\n",
		tracked, lost, captures, worst, alarm, dir)
	captureErrors(out, res.recs, dir)
	return captures
}

// worstBurn is the highest burn of slos and whether any alarm is
// raised.
func worstBurn(slos map[string]*flight.SLO) (worst float64, alarm bool) {
	for _, s := range slos {
		worst = max(worst, float64(s.WorstBurnMilli())/1000)
		alarm = alarm || s.Alarmed()
	}
	return worst, alarm
}

// captureErrors adds a line to any report that names capture files when
// some never reached dir: evidence the reader would look for and not
// find. Silent when every write landed.
func captureErrors(out io.Writer, recs []*flight.Recorder, dir string) {
	var n uint64
	for _, r := range recs {
		n += r.WriteErrors()
	}
	if n > 0 {
		fmt.Fprintf(out, "  capture errors   : %d capture file(s) could NOT be written to %s (flight_capture_write_errors_total)\n", n, dir)
	}
}
