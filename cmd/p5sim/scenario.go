package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// runScenario is the -scenario mode: load a declarative chaos drill,
// run it on a simulated ring, print the graded report. A failed
// assertion names the .p5fr captures that hold the evidence and makes
// p5sim exit non-zero, so the mode slots straight into CI.
func runScenario(cfg simConfig, out io.Writer) error {
	s, err := scenario.Load(cfg.scenarioFile)
	if err != nil {
		return usageError(err.Error())
	}

	dir := cfg.flightDir
	if dir == "" {
		// Captures are the failure evidence; always land them somewhere.
		dir, err = os.MkdirTemp("", "p5sim-scenario-*")
		if err != nil {
			return err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	res, err := s.Run(scenario.RunConfig{CaptureDir: dir})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Chaos drill %q\n", res.Scenario)
	if s.Description != "" {
		fmt.Fprintf(out, "  drill            : %s\n", s.Description)
	}
	fmt.Fprintf(out, "  ring             : %d nodes, %s, %d ticks (bring-up took %d)\n",
		s.Ring.Nodes, s.Ring.Mode, s.Duration, res.BringUpTicks)
	fmt.Fprintf(out, "  events           : %d scripted; %d section resyncs after traffic start\n",
		len(s.Events), res.Resyncs)
	for _, c := range res.Circuits {
		fmt.Fprintf(out, "  %s\n", c.Summary())
	}
	worst, alarm := 0.0, false
	for _, sl := range res.Board.SLOs {
		if sl.WorstBurn > worst {
			worst = sl.WorstBurn
		}
		alarm = alarm || sl.Alarm
	}
	fmt.Fprintf(out, "  slo              : worst-burn=%.2f alarm=%v captures=%d dir=%s\n",
		worst, alarm, len(res.CapturePaths), dir)
	reportCaptureWriteErrors(out, res.Board.Links, dir)
	if err := stopProf(cfg, out); err != nil {
		return err
	}

	// Distributed SLO block: grade the live fleet after the drill.
	if s.Fleet != nil {
		fleetFails := s.GradeFleet()
		fmt.Fprintf(out, "  fleet            : %d instances scraped, %d violations\n",
			len(s.Fleet.Instances), len(fleetFails))
		res.Failures = append(res.Failures, fleetFails...)
		res.Pass = len(res.Failures) == 0
	}

	if res.Pass {
		fmt.Fprintf(out, "  verdict          : PASS (%d assertions held)\n", s.Assert.Count()+s.Fleet.Count())
		return nil
	}
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
	return fmt.Errorf("scenario %q failed %d assertion(s); flight captures in %s",
		res.Scenario, len(res.Failures), dir)
}
