package scenario

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/sonet"
	"repro/internal/synth"
)

// runP5 runs the cycle-accurate P5 model on the traffic and reports the
// measured line performance — the simulation counterpart of the paper's
// 2.5 Gb/s headline — graded as the one circuit "p5".
func (s *Scenario) runP5(rc RunConfig, res *Result) error {
	dist, _ := s.Traffic.dist()
	gen := netsim.NewGen(s.Traffic.seed(), dist, s.P5.Density)
	sent := make([][]byte, s.P5.Frames)
	for i := range sent {
		sent[i] = gen.Next()
	}
	run, sys := s.p5Loopback, p5.NewSystem(s.P5.Width/8)
	if s.P5.Line == "stm1" {
		run, sys = s.p5Section, p5.NewSectionSystem(s.P5.Width/8, sonet.STM1)
	}
	if reg := rc.Observation.Registry; reg != nil {
		tel := sys.Instrument(reg)
		if sys.Section != nil {
			sys.Section.Z.Deframer().Instrument(tel, rc.Observation.Tracer)
		}
	}
	if err := run(rc, res, sys, sent); err != nil {
		return err
	}
	s.grade(res)
	return s.conclude(rc, res)
}

// p5Ledger grades what the receiver queued against what was sent:
// frames arrive in order, so each delivered one must be the next sent
// payload it matches, or it is corrupt.
func p5Ledger(sent [][]byte, got []p5.RxFrame) circuitReport {
	rep := circuitReport{Name: "p5", Sent: len(sent)}
	next := 0
	for _, f := range got {
		if f.Err != nil {
			rep.RxErrors++
			continue
		}
		i := next
		for i < len(sent) && !bytes.Equal(f.Frame.Payload, sent[i]) {
			i++
		}
		if i == len(sent) {
			rep.Corrupted++
			continue
		}
		rep.Received++
		next = i + 1
	}
	return rep
}

// p5Loopback runs the system with the line model looping the octets
// straight back.
func (s *Scenario) p5Loopback(rc RunConfig, res *Result, sys *p5.System, sent [][]byte) error {
	w, out := sys.W, rc.Out
	var payloadBits int64
	for _, d := range sent {
		payloadBits += int64(len(d)) * 8
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	if !sys.RunUntilIdle(200_000_000) {
		return fmt.Errorf("system did not drain")
	}
	sys.SyncTelemetry()
	rep := p5Ledger(sent, sys.Received())
	res.Circuits = []circuitReport{rep}

	cycles := sys.Sim.Now()
	bitsPerCycle := float64(payloadBits) / float64(cycles)
	fmaxV2 := synth.VirtexII.FMaxMHz(synth.Total(synth.Inventory(w)).Depth, true)
	fmt.Fprintf(out, "P5 %d-bit loopback simulation\n", s.P5.Width)
	fmt.Fprintf(out, "  datagrams        : %d sent, %d delivered, %d rejected\n", rep.Sent, rep.Received+rep.Corrupted, rep.RxErrors)
	fmt.Fprintf(out, "  payload          : %d bits in %d cycles = %.2f bits/cycle\n",
		payloadBits, cycles, bitsPerCycle)
	fmt.Fprintf(out, "  @ 78.125 MHz     : %.3f Gb/s goodput (paper line rate: %.1f Gb/s)\n",
		bitsPerCycle*synth.RequiredMHz/1000, float64(s.P5.Width)*78.125/1000)
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
	return nil
}

// p5Section runs the system over its STM-1 section with the scripted
// faults on the section's transmit side, the deframer's defect monitor
// wired into the OAM alarm register; the section runs Duration frame
// times, one every FrameBytes/W cycles.
func (s *Scenario) p5Section(rc RunConfig, res *Result, sys *p5.System, sent [][]byte) error {
	out, sec, oam := rc.Out, sys.Section, sys.OAM
	df := sec.Z.Deframer()
	oam.Write(p5.RegIntMask, p5.IntOOF|p5.IntLOF|p5.IntLOS|p5.IntSDeg|p5.IntSFail)

	// The scripted faults, one frame per frame time from traffic start.
	var script fault.Script
	for _, e := range s.Events {
		e.fault(&script, int64(sonet.STM1.FrameBytes()), s.Duration, 0)
	}
	sort.SliceStable(script.Ops, func(i, j int) bool { return script.Ops[i].At < script.Ops[j].At })
	inj := fault.NewInjector(script)
	sec.A.Inject = inj.Apply
	for _, d := range sent {
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	for int64(sec.A.Framer().FramesBuilt) < s.Duration {
		sys.Cycle()
	}
	// Then the line goes dark: what the transmitter still holds is never
	// carried, and the receiver drains what the last frame brought.
	sec.A.Inject = func([]byte) []byte { return nil }
	if !sys.RunUntilIdle(200_000_000) {
		return fmt.Errorf("system did not drain")
	}
	sys.SyncTelemetry()
	// The first alignment is acquisition, not a resync.
	res.Resyncs = max(df.ResyncCount, 1) - 1

	rep := p5Ledger(sent, sys.Received())
	res.Circuits = []circuitReport{rep}
	fmt.Fprintf(out, "P5 %d-bit over STM-1 SDH section\n", s.P5.Width)
	fmt.Fprintf(out, "  datagrams        : %d sent, %d delivered, %d rejected\n", rep.Sent, rep.Received+rep.Corrupted, rep.RxErrors)
	if len(script.Ops) > 0 {
		fmt.Fprintf(out, "  fault script     : %s\n", script.String())
	} else {
		fmt.Fprintf(out, "  fault script     : (clean line)\n")
	}
	fmt.Fprintf(out, "  injector         : slips +%d/-%d dup=%d los-octets=%d bit-errors=%d\n",
		inj.Stats.Inserted, inj.Stats.Deleted, inj.Stats.Duplicated,
		inj.Stats.LOSOctets, inj.Stats.NoiseBits)
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
		oam.Read(p5.RegIntStat), sys.Regs.IRQ(), causeNames(oam.Read(p5.RegIntStat)))
	return nil
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
