package scenario

import (
	"fmt"
	"sort"

	gigapos "repro"
	"repro/internal/fault"
	"repro/internal/sonet"
	"repro/internal/topo"
)

// ring is the SONET ring as a ledger medium.
type ring struct {
	*topo.Ring
}

func (r ring) tick(now int64) { r.Tick(now) }

// arm compiles span impairments into per-span fault scripts anchored at
// traffic start (the injector position starts at zero when the script
// is installed, and every span moves one frame per tick); node failures
// and restores are the drill's to fire.
func (r ring) arm(events []event, duration int64) []event {
	fb := int64(sonet.STM1.FrameBytes()) // every ring span is STM-1
	scripts := map[*topo.Span]*fault.Script{}
	var actions []event
	for _, e := range events {
		if !has(reads[e.Action], "between") {
			actions = append(actions, e)
			continue
		}
		uv, vu, _ := r.SpansBetween(e.Between[0], e.Between[1]) // adjacency validated
		for dir, sp := range []*topo.Span{uv, vu} {
			if scripts[sp] == nil {
				scripts[sp] = &fault.Script{}
			}
			e.fault(scripts[sp], fb, duration, uint64(dir))
		}
	}
	for sp, sc := range scripts {
		sp.Inject = fault.NewInjector(*sc).Apply
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	return actions
}

func (r ring) act(e event) { r.Node(e.Node).Failed = e.Action == "node-fail" }

// resyncs totals frame-alignment reacquisitions over every span.
func (r ring) resyncs() uint64 {
	var n uint64
	for rot := topo.East; rot <= topo.West; rot++ {
		for i := 0; i < r.Nodes(); i++ {
			n += r.Span(rot, i).Deframer().ResyncCount
		}
	}
	return n
}

// runRing rides a PPP Link pair over every circuit of the ring, each end
// on its circuit's port.
func (s *Scenario) runRing(rc RunConfig, res *Result) error {
	r, ports, err := s.Ring.build()
	if err != nil {
		return err // validate built the same ring
	}
	var watch gigapos.Watch
	var runs []*circuitRun
	for i, cs := range s.Ring.Circuits {
		mk := func(port *topo.Port, magic uint32, ip byte) (*gigapos.TransportPort, *endpoint) {
			l := gigapos.NewLink(gigapos.LinkConfig{Magic: magic, IPAddr: [4]byte{10, byte(i), 0, ip}})
			tp := gigapos.NewTransportPort(l, port)
			return tp, newEndpoint(tp, func() (uint64, int64, bool) {
				return port.Switches, port.LastFailover, !port.Up()
			})
		}
		la, a := mk(ports[i][0], 0xA0000000+uint32(i)*2, 1)
		lb, b := mk(ports[i][1], 0xB0000000+uint32(i)*2, 2)
		watch.ObservePair(rc.Observation, cs.Name, la, lb)
		runs = append(runs, &circuitRun{name: cs.Name, a: a, b: b})
	}
	notePaths(res, runs)
	s.ledger(res, runs, ring{r}, watch.SLOs)
	res.slos = watch.SLOs

	out, dir := rc.Out, rc.Observation.Flight.Dir
	fmt.Fprintf(out, "  ring             : %d nodes, %s, %d ticks (bring-up took %d)\n",
		s.Ring.Nodes, s.Ring.Mode, s.Duration, res.BringUpTicks)
	fmt.Fprintf(out, "  events           : %d scripted; %d section resyncs after traffic start\n",
		len(s.Events), res.Resyncs)
	for _, c := range res.Circuits {
		fmt.Fprintf(out, "  %s\n", c.summary())
	}
	worst, alarm := worstBurn(res.slos)
	fmt.Fprintf(out, "  slo              : worst-burn=%.2f alarm=%v captures=%d dir=%s\n",
		worst, alarm, len(res.CapturePaths), dir)
	captureErrors(out, res.recs, dir)
	return s.conclude(rc, res)
}
