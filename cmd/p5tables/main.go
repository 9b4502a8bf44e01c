// Command p5tables prints the reproduction of the paper's synthesis
// evaluation: Table 1 (8-bit P5), Table 2 (32-bit P5), Table 3 (Escape
// Generate module), the headline area ratios, the timing analysis
// (critical path and achievable line rate per technology) and the
// width scaling study, whose goodput surface — datapath width × payload
// escape density, every cell a cycle-accurate Tx→line→Rx run — is the
// expanded form of the paper's throughput evaluation (E6, E11).
//
// Usage:
//
//	p5tables [-table 1|2|3] [-ratios] [-timing] [-scaling]
//
// With no flags, everything is printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/synth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("p5tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "print only one table (1, 2 or 3)")
	ratios := fs.Bool("ratios", false, "print only the area ratios")
	timing := fs.Bool("timing", false, "print only the timing analysis")
	scaling := fs.Bool("scaling", false, "print only the width scaling study and goodput surface")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *table < 0 || *table > 3 {
		fmt.Fprintln(stderr, "p5tables: -table must be 1, 2 or 3")
		return 2
	}
	all := *table == 0 && !*ratios && !*timing && !*scaling

	if all || *table == 1 {
		fmt.Fprint(out, synth.FormatSystemTable("Table 1 — P5 8-bit implementation (paper: ~184 LUTs / 84 FFs)",
			synth.SystemTable(1, synth.XCV50, synth.XC2V40)))
		fmt.Fprintln(out)
	}
	if all || *table == 2 {
		fmt.Fprint(out, synth.FormatSystemTable("Table 2 — P5 32-bit implementation (paper: ~2230 LUTs / 841 FFs)",
			synth.SystemTable(4, synth.XCV600, synth.XC2V1000)))
		fmt.Fprintln(out)
	}
	if all || *table == 3 {
		fmt.Fprint(out, synth.FormatModuleTable(synth.XC2V40, synth.EscapeGenerateTable(synth.XC2V40)))
		fmt.Fprintln(out, "(paper: 32-bit = 492 LUTs (96%) / 168 FFs (32%); 8-bit = 22 LUTs / 6 FFs)")
		fmt.Fprintln(out)
	}
	if all || *ratios {
		r := synth.ComputeRatios()
		fmt.Fprintln(out, "Area ratios, 32-bit / 8-bit")
		fmt.Fprintf(out, "  full system     : %5.1fx LUTs, %5.1fx FFs\n", r.SystemLUT, r.SystemFF)
		fmt.Fprintf(out, "  datapath (no OAM): %4.1fx LUTs, %5.1fx FFs\n", r.DatapathLUT, r.DatapathFF)
		fmt.Fprintf(out, "  escape generate : %5.1fx LUTs, %5.1fx FFs   (paper: 25x / 28x)\n",
			r.EscapeGenLUT, r.EscapeGenFF)
		fmt.Fprintln(out, "  (paper system ratio: ~11x — see EXPERIMENTS.md E8 for the deviation analysis)")
		fmt.Fprintln(out)
	}
	if all || *timing {
		fmt.Fprintln(out, "Timing analysis (paper: 6-LUT critical path on both technologies)")
		for _, w := range []int{1, 4} {
			tot := synth.Total(synth.Inventory(w))
			fmt.Fprintf(out, "  %2d-bit system, depth %d LUTs:\n", w*8, tot.Depth)
			for _, tech := range []synth.Tech{synth.Virtex, synth.VirtexII} {
				post := tech.FMaxMHz(tot.Depth, true)
				fmt.Fprintf(out, "    %-12s pre %6.1f MHz, post %6.1f MHz → %5.2f Gb/s (need %.3f MHz: %v)\n",
					tech.Name, tech.FMaxMHz(tot.Depth, false), post,
					synth.LineRateGbps(post, w), synth.RequiredMHz, post >= synth.RequiredMHz)
			}
		}
		fmt.Fprintln(out)
	}
	if all || *scaling {
		fmt.Fprint(out, synth.FormatScalingTable(synth.ScalingTable()))
		fmt.Fprintln(out)
		if err := goodputSurface(out); err != nil {
			fmt.Fprintln(stderr, "p5tables:", err)
			return 1
		}
		fmt.Fprintln(out)
	}
	// Per-module breakdown rounds out the report.
	if all {
		for _, w := range []int{1, 4} {
			fmt.Fprintf(out, "Module inventory, %d-bit P5\n", w*8)
			fmt.Fprintf(out, "  %-18s %6s %6s %6s\n", "module", "LUTs", "FFs", "depth")
			for _, m := range synth.Inventory(w) {
				fmt.Fprintf(out, "  %-18s %6d %6d %6d\n", m.Name, m.Cost.LUTs, m.Cost.FFs, m.Cost.Depth)
			}
			tot := synth.Total(synth.Inventory(w))
			fmt.Fprintf(out, "  %-18s %6d %6d %6d\n\n", "TOTAL", tot.LUTs, tot.FFs, tot.Depth)
		}
	}
	return 0
}

// surfaceFrames is the number of 1500-octet datagrams behind each cell
// of the goodput surface.
const surfaceFrames = 40

// goodputSurface prints the measured goodput of the loopback System at
// each datapath width and payload escape density, in Gb/s at the
// 78.125 MHz target clock, one run after another.
func goodputSurface(out io.Writer) error {
	densities := []float64{0, 0.01, 0.05, 0.25, 0.5, 1.0}
	fmt.Fprintf(out, "goodput in Gb/s at the 78.125 MHz target clock\n")
	fmt.Fprintf(out, "%8s", "width")
	for _, d := range densities {
		fmt.Fprintf(out, " %8.0f%%", d*100)
	}
	fmt.Fprintln(out, "  ← escape density")
	for _, w := range []int{1, 2, 4, 8} {
		fmt.Fprintf(out, "%8s", fmt.Sprintf("%d-bit", w*8))
		for _, d := range densities {
			bpc, err := measureGoodput(w, d)
			if err != nil {
				return fmt.Errorf("%d-bit at %.0f%%: %v", w*8, d*100, err)
			}
			fmt.Fprintf(out, " %9.3f", bpc*synth.RequiredMHz/1e3)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\n(every cell is a full cycle-accurate Tx→line→Rx simulation;")
	fmt.Fprintf(out, " the 32-bit row at 0%% density is the paper's 2.5 Gb/s headline)\n")
	return nil
}

// measureGoodput runs surfaceFrames datagrams through a width-w System
// and returns the delivered payload bits per cycle.
func measureGoodput(w int, density float64) (float64, error) {
	gen := netsim.NewGen(42, netsim.Fixed(1500), density)
	sys := p5.NewSystem(w)
	var bits int64
	for i := 0; i < surfaceFrames; i++ {
		d := gen.Next()
		bits += int64(len(d)) * 8
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	if !sys.RunUntilIdle(100_000_000) {
		return 0, fmt.Errorf("did not drain")
	}
	for _, f := range sys.Received() {
		if f.Err != nil {
			return 0, f.Err
		}
	}
	return float64(bits) / float64(sys.Sim.Now()), nil
}
