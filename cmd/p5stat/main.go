// Command p5stat draws the board of one or more running p5sim telemetry
// endpoints — the software equivalent of watching the pipeline's
// occupancy LEDs. -url takes one address or a comma-separated list;
// every endpoint's Prometheus exposition at /metrics (shared with any
// ordinary scraper) is scraped once, labelled with its instance, and
// drawn as one columnar board from those series alone (obsnet.WriteBoard,
// DESIGN.md §16), a single endpoint as a fleet of one:
//
//   - one row per instance: health, uptime, wire version and armed
//     subsystems, or DOWN with the reason it could not be scraped;
//   - each instance's stage tables, its series grouped by instrument
//     prefix (p5 — one System, over its loopback line or its STM-1
//     section — sonet, link, ...), with busy and stall percentages
//     derived from the cycle counters;
//   - when the instances export transport_* series (socket-backed runs),
//     the per-line transport table: liveness, chunk counters, one-way
//     latency p50/p99 and RTT p50, reconnects and resets, keepalive probe
//     and miss counts, drops, version-skew arrivals and send-queue
//     backpressure;
//   - when they export slo_* or flight_* series, the error-budget board:
//     burn rates, budget remaining, alarms, per-link loss, in-flight
//     frames and p99.
//
// With -interval the endpoints are rescraped periodically and each
// window redraws the board, its stage tables showing the window's
// deltas and rates rather than lifetime totals. -exemplars adds each
// link's latency exemplars from the instance's event trace at /trace —
// bucket upper bound, latency, frame id and the tick it arrived — so a
// p99 outlier resolves to a concrete frame; -events dumps each
// instance's trace after the board. -replay FILE formats a saved JSON
// trace (the /trace or telemetry.WriteJSON format) without attaching to
// anything.
//
// p5stat exits 1 when no instance could be scraped; an unreachable
// instance among reachable ones is a DOWN row. An argument p5stat would
// not read is a usage error, reported on stderr with exit status 2
// before anything is scraped: a positional argument, -n without
// -interval, a negative -n or -interval, a -url that names no address,
// or an attach flag (-url, -interval, -n, -events, -exemplars) beside
// -replay.
//
// Usage:
//
//	p5stat [-url 127.0.0.1:8080[,127.0.0.1:8081...]] [-interval 2s] [-n 5] [-events] [-exemplars]
//	p5stat -replay trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obsnet"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// attachFlags are the flags that read from the attached endpoints;
// -replay attaches to none and refuses them.
var attachFlags = []string{"url", "interval", "n", "events", "exemplars"}

// run is the command: it parses args, renders the board or the replay
// to stdout and returns the exit status — 2 for a usage error, said on
// stderr before anything is scraped or read; 1 when no instance could
// be scraped or the replay file could not be read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p5stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8080", "p5sim telemetry endpoint, or a comma-separated list of them")
	interval := fs.Duration("interval", 0, "rescrape period (0 = one board)")
	count := fs.Int("n", 0, "with -interval, stop after this many boards (0 = run until killed)")
	events := fs.Bool("events", false, "dump each instance's structured event trace from /trace after the board")
	exemplars := fs.Bool("exemplars", false, "with the error-budget board, list each link's latency exemplars (slow-frame events from /trace)")
	replay := fs.String("replay", "", "format events from a saved JSON trace file instead of attaching")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "p5stat: "+format+"\n", a...)
		return 2
	}
	var addrs []string
	for _, a := range strings.Split(*url, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *interval < 0:
		return usage("-interval %v is negative", *interval)
	case *count < 0:
		return usage("-n %d is negative", *count)
	case given["n"] && *interval == 0:
		return usage("-n counts -interval boards; give -interval")
	case !given["replay"] && len(addrs) == 0:
		return usage("-url names no address")
	}
	for _, f := range attachFlags {
		if given["replay"] && given[f] {
			return usage("-replay attaches to no endpoint; -%s does not apply", f)
		}
	}

	var err error
	if given["replay"] {
		err = replayTrace(stdout, *replay)
	} else {
		err = attach(stdout, addrs, *interval, *count, *events, *exemplars)
	}
	if err != nil {
		fmt.Fprintln(stderr, "p5stat:", err)
		return 1
	}
	return 0
}

// replayTrace formats a saved JSON trace without attaching to anything.
func replayTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := telemetry.ReadEvents(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	writeEvents(w, evs)
	return nil
}

// attach draws the board over addrs — one, or with interval one per
// window, count of them (0 = until killed) — and with events each
// instance's trace after the last. It fails when a scrape reaches no
// instance.
func attach(w io.Writer, addrs []string, interval time.Duration, count int, events, exemplars bool) error {
	trace := events || exemplars
	cur := obsnet.ScrapeAll(addrs, trace)
	if interval <= 0 {
		if err := board(w, cur, nil, 0, exemplars); err != nil {
			return err
		}
	} else {
		for i := 0; count == 0 || i < count; i++ {
			time.Sleep(interval)
			prev := cur
			cur = obsnet.ScrapeAll(addrs, trace)
			fmt.Fprintf(w, "--- window %s ---\n", interval)
			if err := board(w, cur, prev, interval, exemplars); err != nil {
				return err
			}
		}
	}
	if events {
		for _, in := range cur {
			if in.Err == nil {
				fmt.Fprintf(w, "%s ", in.Addr)
				writeEvents(w, in.Trace)
			}
		}
	}
	return nil
}

// board draws one board and fails when none of its instances was
// reachable, naming why each was not.
func board(w io.Writer, cur, prev []obsnet.Instance, window time.Duration, exemplars bool) error {
	if err := obsnet.WriteBoard(w, cur, prev, window, exemplars); err != nil {
		return err
	}
	var why []string
	for _, in := range cur {
		if in.Err == nil {
			return nil
		}
		why = append(why, in.Err.Error())
	}
	return fmt.Errorf("no instance reachable: %s", strings.Join(why, "; "))
}

func writeEvents(w io.Writer, evs []telemetry.Event) {
	fmt.Fprintf(w, "trace: %d events\n", len(evs))
	for _, e := range evs {
		fmt.Fprintln(w, " ", e.String())
	}
}
