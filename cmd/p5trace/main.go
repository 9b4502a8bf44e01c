// Command p5trace prints cycle-by-cycle traces of the 32-bit escape
// units handling the exact situations of the paper's Figures 5 and 6:
// a flag character in an arbitrary lane expanding the word (stuffing)
// and an escape character collapsing it (destuffing bubble).
//
// Usage:
//
//	p5trace [-fig 5|6] [-cycles N] [-vcd file.vcd]
//	p5trace -capture FILE [-fcs 16|32]
//	p5trace -join A.p5fr B.p5fr
//
// With -vcd, a Value Change Dump of the traced signals is also written,
// viewable in GTKWave. With -capture, a flight-recorder black-box dump
// (.p5fr) is decoded instead: trigger metadata, register snapshot,
// trace events, and the captured wire streams re-tokenized into
// annotated HDLC frames. With -join, two captures sharing one incident
// ID (the correlated pair a distributed trigger dumps on both ends of a
// line) are merged: their tick domains are aligned using the clock and
// tick offsets estimated by the transport's latency tracing, and both
// black boxes render as one two-sided incident timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/flight"
	"repro/internal/obsnet"
	"repro/internal/p5"
	"repro/internal/rtl"
)

func flitString(f rtl.Flit, ok bool) string {
	if !ok {
		return "--          "
	}
	var b strings.Builder
	for i := 0; i < f.N; i++ {
		fmt.Fprintf(&b, "%02X ", f.Byte(i))
	}
	for i := f.N; i < 4; i++ {
		b.WriteString(".. ")
	}
	tags := ""
	if f.SOF {
		tags += "S"
	}
	if f.EOF {
		tags += "E"
	}
	return b.String() + tags
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p5trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 5, "figure to trace (5 = escape generate, 6 = escape detect)")
	cycles := fs.Int("cycles", 16, "cycles to trace")
	vcdPath := fs.String("vcd", "", "also write a Value Change Dump to this file")
	capture := fs.String("capture", "", "decode a flight-recorder capture file (.p5fr) and exit")
	join := fs.Bool("join", false, "merge the two correlated .p5fr captures given as arguments into one incident timeline")
	fcsBits := fs.Int("fcs", 32, "FCS mode used when re-framing captured wire bytes (16 or 32)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "p5trace:", err)
		return 1
	}

	if *join {
		if err := joinCaptures(stdout, fs.Args()); err != nil {
			return fail(err)
		}
		return 0
	}
	if *capture != "" {
		if err := dumpCapture(stdout, *capture, *fcsBits); err != nil {
			return fail(err)
		}
		return 0
	}

	trace := map[int]func(io.Writer, int, *rtl.VCD){5: trace5, 6: trace6}[*fig]
	if trace == nil {
		fmt.Fprintln(stderr, "p5trace: -fig must be 5 or 6")
		return 2
	}
	var vcd *rtl.VCD
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		vcd = rtl.NewVCD(f)
	}
	trace(stdout, *cycles, vcd)
	if vcd != nil {
		fmt.Fprintf(stdout, "\nVCD written to %s\n", *vcdPath)
	}
	return 0
}

// joinCaptures loads a correlated capture pair and renders the merged
// two-sided incident timeline.
func joinCaptures(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-join needs exactly two capture files, got %d", len(paths))
	}
	a, err := flight.ReadFile(paths[0])
	if err != nil {
		return fmt.Errorf("%s: %v", paths[0], err)
	}
	b, err := flight.ReadFile(paths[1])
	if err != nil {
		return fmt.Errorf("%s: %v", paths[1], err)
	}
	j, err := obsnet.Join(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "joined captures %s + %s\n", paths[0], paths[1])
	return j.WriteTimeline(w)
}

// trace5 reproduces Figure 5: the word 7E 12 34 56 enters the Escape
// Generate unit; 7E expands to 7D 5E, producing five octets that must
// be re-sorted across word boundaries.
func trace5(out io.Writer, n int, vcd *rtl.VCD) {
	fmt.Fprintln(out, "Figure 5 — Escape Generate data organisation")
	fmt.Fprintln(out, "input frame: 7E 12 34 56 9A BC DE F0 (flag in lane 0 of word 0)")
	fmt.Fprintln(out)
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	line := sim.Wire("out")
	gen := &p5.EscapeGen{In: src.Out, Out: line, W: 4}
	sink := rtl.NewSink(line)
	sim.Add(src, gen, sink)
	src.FeedBytes([]byte{0x7E, 0x12, 0x34, 0x56, 0x9A, 0xBC, 0xDE, 0xF0}, 4)

	if vcd != nil {
		vcd.WatchWire("input", src.Out, 4)
		vcd.WatchWire("line", line, 4)
		vcd.Watch("resync_occupancy", 8, func() (uint64, bool) {
			return uint64(gen.Occupancy()), true
		})
	}
	fmt.Fprintf(out, "%5s  %-16s %8s  %-16s\n", "cycle", "input word", "buffer", "line word out")
	for c := 0; c < n; c++ {
		in, inOK := src.Out.Peek()
		outStart := len(sink.Flits)
		occ := gen.Occupancy()
		sim.Cycle()
		if vcd != nil {
			vcd.Sample(sim.Now())
		}
		outStr := "--"
		if len(sink.Flits) > outStart {
			outStr = flitString(sink.Flits[len(sink.Flits)-1], true)
		}
		fmt.Fprintf(out, "%5d  %-16s %5d B   %-16s\n", c, flitString(in, inOK), occ, outStr)
	}
	fmt.Fprintf(out, "\nline stream: % X\n", sink.Data)
	fmt.Fprintln(out, "note the extra 7D octet after the opening flag and the one-octet")
	fmt.Fprintln(out, "shift of every subsequent word — the paper's Figure 5 reorganisation.")
}

// trace6 reproduces Figure 6: the stuffed stream 7D 5E 12 ... enters the
// receiver; deleting 7D leaves a bubble the sorter must close.
func trace6(out io.Writer, n int, vcd *rtl.VCD) {
	fmt.Fprintln(out, "Figure 6 — Escape Detect data organisation")
	fmt.Fprintln(out, "line: 7E 7D 5E 12 34 56 9A BC DE 7E (escaped flag in the payload)")
	fmt.Fprintln(out)
	sim := &rtl.Sim{}
	src := &rtl.Source{}
	regs := p5.NewRegs()
	rx := p5.NewReceiver(sim, 4, regs)
	src.Out = rx.In
	sim.Add(src)
	// Hand-built line stream (no FCS — we watch the sorter, not CRC).
	line := []byte{0x7E, 0x7D, 0x5E, 0x12, 0x34, 0x56, 0x9A, 0xBC, 0xDE, 0x7E, 0x7E, 0x7E}
	src.FeedBytes(line, 4)

	// Watch the escape-detect output wire.
	det := rx.Escape
	if vcd != nil {
		vcd.WatchWire("line", src.Out, 4)
		vcd.WatchWire("destuffed", det.Out, 4)
		vcd.Watch("resync_occupancy", 8, func() (uint64, bool) {
			return uint64(det.Occupancy()), true
		})
	}
	fmt.Fprintf(out, "%5s  %-16s %8s  %-16s\n", "cycle", "line word in", "buffer", "destuffed out")
	for c := 0; c < n; c++ {
		in, inOK := src.Out.Peek()
		outF, outOK := det.Out.Peek()
		occ := det.Occupancy()
		sim.Cycle()
		if vcd != nil {
			vcd.Sample(sim.Now())
		}
		fmt.Fprintf(out, "%5d  %-16s %5d B   %-16s\n", c, flitString(in, inOK), occ, flitString(outF, outOK))
	}
	fmt.Fprintln(out, "\nthe deleted 7D leaves a one-octet bubble; the following octets")
	fmt.Fprintln(out, "slide forward one lane — the paper's Figure 6 compaction.")
}
