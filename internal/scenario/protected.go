package scenario

import (
	"fmt"

	gigapos "repro"
	"repro/internal/aps"
	"repro/internal/fault"
	"repro/internal/p5"
	"repro/internal/prof"
	"repro/internal/sonet"
)

// protected is the 1+1 pair's own lines as a ledger medium: each end's
// port ticks its two sections, so a tick moves nothing else. Faults go
// on the a end's sections.
type protected struct{ a *aps.Protected }

func (protected) tick(int64)      {}
func (protected) act(event)       {}
func (protected) resyncs() uint64 { return 0 } // min_resyncs is a ring and P5-section check

// arm compiles the line faults into the working line a → z, from
// traffic start; the protection line stays clean.
func (p protected) arm(events []event, duration int64) []event {
	var working fault.Script
	for _, e := range events {
		e.fault(&working, int64(sonet.STM1.FrameBytes()), duration, 0)
	}
	p.a.Line(aps.Working).Inject = fault.NewInjector(working).Apply
	return nil
}

// runProtected runs the ledger over two supervised PPP ends on a 1+1
// protected STM-1 pair: a working-line fault under live traffic moves
// the APS selector to the protection line inside the 50 ms budget
// without an LCP/IPCP renegotiation, and wait-to-restore reverts it
// once the line heals. One tick is one 125 µs frame time per
// direction, so the GR-253 budget is 400 ticks. The z end's OAM block
// watches the controller, its recorder and its SLO.
func (s *Scenario) runProtected(rc RunConfig, res *Result) error {
	lcfg := gigapos.LinkConfig{
		EchoPeriod: 8, Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfgA, cfgB := lcfg, lcfg
	cfgA.Magic, cfgA.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	cfgB.Magic, cfgB.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	la, lb := aps.NewProtectedPair()
	a := gigapos.NewTransportPort(gigapos.NewLink(cfgA), la)
	b := gigapos.NewTransportPort(gigapos.NewLink(cfgB), lb)
	var w gigapos.Watch
	w.ObservePair(rc.Observation, "prot", a, b)
	oam := &p5.OAM{Regs: p5.NewRegs()}
	oam.AttachAPS(lb.Ctrl)
	oam.Write(p5.RegIntMask, p5.IntAPSSwitch|p5.IntFlightDump|p5.IntSLOBurn|p5.IntProfDump)
	if dir := rc.ProfDir; dir != "" {
		oam.AttachProfiler(func() error {
			_, err := prof.WriteSnapshot(dir, "oam")
			return err
		})
	}
	oam.AttachFlight(b.Link.Flight(), w.SLOs["prot_z"])

	end := func(tp *gigapos.TransportPort, pl *aps.Protected) *endpoint {
		return newEndpoint(tp, func() (uint64, int64, bool) {
			defects := pl.Line(pl.Ctrl.Active()).Deframer().Defects.Active()
			return pl.Ctrl.Stats.Switches, pl.Ctrl.Stats.LastSwitchTook, defects&sonet.ServiceAffecting != 0
		})
	}
	runs := []*circuitRun{{name: "prot", a: end(a, la), b: end(b, lb)}}
	notePaths(res, runs)
	s.ledger(res, runs, protected{la}, w.SLOs)
	res.slos = w.SLOs

	out, st := rc.Out, lb.Ctrl.Stats
	fmt.Fprintf(out, "1+1 protected PPP over STM-1 (GR-253 linear APS, bidirectional, revertive)\n")
	for _, e := range s.Events {
		if cut := e.span(s.Duration); e.Action == "cut" {
			fmt.Fprintf(out, "  working-line cut : %d frames (%.1f ms of dead line)\n", cut, float64(cut)*0.125)
		}
	}
	for _, c := range res.Circuits {
		fmt.Fprintf(out, "  %s\n", c.summary())
	}
	fmt.Fprintf(out, "  aps              : switches=%d to-protect=%d to-working=%d remote-wins=%d\n",
		st.Switches, st.ToProtect, st.ToWorking, st.RemoteWins)
	fmt.Fprintf(out, "  switch time      : %d frame times (budget 400 = 50 ms); selector now on %v\n",
		st.LastSwitchTook, lb.Ctrl.Active())
	fmt.Fprintf(out, "  standby selector : %d payload octets recovered hot and discarded\n",
		lb.DiscardedStandbyOctets)
	fmt.Fprintf(out, "  OAM aps regs     : state=%#x rx=%#04x tx=%#04x switches=%d\n",
		oam.Read(p5.RegAPSState), oam.Read(p5.RegAPSRx),
		oam.Read(p5.RegAPSTx), oam.Read(p5.RegAPSSwitches))
	fmt.Fprintf(out, "  OAM interrupts   : stat=%#x irq=%v causes=[%s]\n",
		oam.Read(p5.RegIntStat), oam.Regs.IRQ(), causeNames(oam.Read(p5.RegIntStat)))
	fmt.Fprintf(out, "  flight captures  : aps-switch=%d total=%d (p99 %d ticks a→b); OAM RegFlightCtrl=%d\n",
		b.Link.Flight().CapturesFor("aps-switch"), b.Link.Flight().Captures(), a.Link.Flight().P99(),
		oam.Read(p5.RegFlightCtrl))
	flightLine(out, res, rc.Observation.Flight.Dir)
	return s.conclude(rc, res)
}
