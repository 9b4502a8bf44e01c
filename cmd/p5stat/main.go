// Command p5stat renders a columnar per-stage utilisation and stall
// report from a running p5sim telemetry endpoint — the software
// equivalent of watching the pipeline's occupancy LEDs. It attaches to
// the Prometheus exposition at /metrics (shared with any ordinary
// scraper), groups series by instrument prefix (p5 — one System,
// over its loopback line or its STM-1 section — and sonet), and derives
// busy and stall percentages from the cycle counters.
//
// With -interval the endpoint is rescraped periodically and each
// report shows the delta window, so live runs read as rates rather
// than lifetime totals. With -events the structured trace at /trace is
// dumped after the tables; -replay FILE formats a saved JSON trace
// (the /trace or telemetry.WriteJSON format) without attaching to
// anything. With -slo the error-budget board is rendered after the
// tables from the same /metrics scrape (burn rates, budget remaining,
// alarms, per-link loss, in-flight frames and p99); -exemplars adds
// each link's latency exemplars, the slow-frame events at /trace —
// bucket upper bound, latency, frame id and the tick it arrived — so a
// p99 outlier resolves to a concrete frame.
//
// With -transport the per-line transport table is rendered after the
// stage tables (socket-backed p5sim runs export the transport_* series):
// liveness, chunk counters, one-way latency p50/p99 and RTT p50,
// reconnects and resets, keepalive probe and miss counts, drops,
// version-skew arrivals and send-queue backpressure.
//
// With -fleet ADDR,ADDR,... p5stat becomes the fleet board: every
// address's /metrics is scraped once, labelled with its instance, and
// rendered as one columnar view from those series — instance identity
// (health, uptime, wire version, armed subsystems), the same per-line
// transport table as -transport and the same SLO board as -slo, each
// with an instance column. Unreachable instances render as DOWN rows
// instead of failing the board.
//
// An argument p5stat would not read is a usage error, reported on
// stderr with exit status 2 before anything is scraped: a positional
// argument, -n without -interval, a negative -n or -interval, an
// attach flag (-url, -interval, -n, -events, -transport, -slo,
// -exemplars) beside -fleet or -replay, or both of those.
//
// Usage:
//
//	p5stat [-url http://127.0.0.1:8080] [-interval 2s] [-n 5] [-events] [-slo] [-exemplars] [-transport]
//	p5stat -fleet 127.0.0.1:8080,127.0.0.1:8081
//	p5stat -replay trace.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obsnet"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// attachFlags are the flags that read from one attached endpoint; the
// -fleet and -replay modes attach to none and refuse them.
var attachFlags = []string{"url", "interval", "n", "events", "transport", "slo", "exemplars"}

// run is the command: it parses args, renders the chosen report to
// stdout and returns the exit status — 2 for a usage error, said on
// stderr before anything is scraped or read; 1 for a failed scrape or
// render.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p5stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8080", "p5sim telemetry endpoint base URL")
	interval := fs.Duration("interval", 0, "rescrape period (0 = one snapshot report)")
	count := fs.Int("n", 0, "with -interval, stop after this many reports (0 = run until killed)")
	var v view
	fs.BoolVar(&v.events, "events", false, "dump the structured event trace from /trace after the report")
	fs.BoolVar(&v.transport, "transport", false, "render the per-line transport table (liveness, latency, reconnects, keepalive misses, queue high-water) from the transport_* series")
	fs.BoolVar(&v.slo, "slo", false, "render the error-budget board from the slo_* and flight_* series after the report")
	fs.BoolVar(&v.exemplars, "exemplars", false, "with the error-budget board, list each link's latency exemplars (slow-frame events from /trace)")
	replay := fs.String("replay", "", "format events from a saved JSON trace file instead of attaching")
	fleet := fs.String("fleet", "", "comma-separated telemetry addresses; render the cross-instance fleet board instead of attaching to one endpoint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "p5stat: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *interval < 0:
		return usage("-interval %v is negative", *interval)
	case *count < 0:
		return usage("-n %d is negative", *count)
	case given["n"] && *interval == 0:
		return usage("-n counts -interval reports; give -interval")
	case given["fleet"] && given["replay"]:
		return usage("-fleet and -replay are two modes; give one")
	}
	for _, mode := range []string{"fleet", "replay"} {
		for _, f := range attachFlags {
			if given[mode] && given[f] {
				return usage("-%s attaches to no endpoint; -%s does not apply", mode, f)
			}
		}
	}

	var err error
	switch {
	case given["fleet"]:
		err = runFleet(stdout, *fleet)
	case given["replay"]:
		err = replayTrace(stdout, *replay)
	default:
		err = attach(stdout, *url, *interval, *count, v)
	}
	if err != nil {
		fmt.Fprintln(stderr, "p5stat:", err)
		return 1
	}
	return 0
}

// runFleet is the fleet-board mode: scrape every listed instance and
// render the cross-instance board. A fully dark fleet is an error (a
// typo'd address list should not exit 0); partial reachability is the
// board's job to show.
func runFleet(w io.Writer, addrList string) error {
	var addrs []string
	for _, a := range strings.Split(addrList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-fleet: no addresses")
	}
	instances := obsnet.ScrapeAll(addrs)
	if err := obsnet.WriteFleetBoard(w, instances); err != nil {
		return err
	}
	alive := 0
	for _, in := range instances {
		if in.Err == nil {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("no instance reachable (%d scraped)", len(instances))
	}
	return nil
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

// view is what an attached report renders after the stage tables.
type view struct{ events, slo, exemplars, transport bool }

// attach renders one endpoint's stage tables — one snapshot, or with
// interval a delta report per window, count of them (0 = until killed)
// — and then what v asks for.
func attach(w io.Writer, url string, interval time.Duration, count int, v view) error {
	cur, err := scrape(url + "/metrics")
	if err != nil {
		return err
	}
	trailers := func() error {
		if v.transport {
			if err := obsnet.WriteTransportTable(w, cur); err != nil {
				return err
			}
		}
		if v.events {
			evs, err := fetchTrace(url)
			if err != nil {
				return err
			}
			writeEvents(w, evs)
		}
		if !v.slo && !v.exemplars {
			return nil
		}
		var evs []telemetry.Event
		if v.exemplars {
			if evs, err = fetchTrace(url); err != nil {
				return err
			}
		}
		return obsnet.WriteSLOBoard(w, cur, evs)
	}
	if interval <= 0 {
		report(w, cur, nil, 0)
		return trailers()
	}
	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		prev := cur
		if cur, err = scrape(url + "/metrics"); err != nil {
			return err
		}
		fmt.Fprintf(w, "--- window %s ---\n", interval)
		report(w, cur, prev, interval.Seconds())
	}
	return trailers()
}

// scrape fetches and parses one Prometheus exposition.
func scrape(url string) ([]telemetry.Series, error) {
	body, err := obsnet.Fetch(url)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseText(bytes.NewReader(body))
}

// fetchTrace fetches and decodes the event trace at /trace.
func fetchTrace(base string) ([]telemetry.Event, error) {
	body, err := obsnet.Fetch(base + "/trace")
	if err != nil {
		return nil, err
	}
	return telemetry.ReadEvents(bytes.NewReader(body))
}

func writeEvents(w io.Writer, evs []telemetry.Event) {
	fmt.Fprintf(w, "trace: %d events\n", len(evs))
	for _, e := range evs {
		fmt.Fprintln(w, " ", e.String())
	}
}

// report renders the per-prefix stage tables. prev (from an earlier
// scrape) turns counters into window deltas; elapsed > 0 adds a
// per-second rate column.
func report(w io.Writer, cur, prev []telemetry.Series, elapsed float64) {
	prevVal := map[string]float64{}
	for _, s := range prev {
		prevVal[s.Full] = s.Value
	}
	// delta is the windowed value of one series: counters (by the
	// _total naming convention) are differenced against the previous
	// scrape; gauges always show the instantaneous value.
	delta := func(s telemetry.Series) float64 {
		if strings.HasSuffix(s.Name, "_total") {
			return s.Value - prevVal[s.Full]
		}
		return s.Value
	}

	byPrefix := map[string][]telemetry.Series{}
	for _, s := range cur {
		p := s.Name
		if i := strings.IndexByte(p, '_'); i > 0 {
			p = p[:i]
		}
		byPrefix[p] = append(byPrefix[p], s)
	}
	prefixes := make([]string, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)

	for _, p := range prefixes {
		group := byPrefix[p]
		cycles := 0.0
		var units, wires, rest []telemetry.Series
		for _, s := range group {
			switch {
			case s.Name == p+"_cycles_total":
				cycles = delta(s)
			case s.Name == p+"_unit_busy_cycles_total":
				units = append(units, s)
			case strings.HasPrefix(s.Name, p+"_wire_"):
				wires = append(wires, s)
			default:
				rest = append(rest, s)
			}
		}
		if cycles > 0 {
			fmt.Fprintf(w, "%s: %.0f cycles\n", p, cycles)
		} else {
			fmt.Fprintf(w, "%s:\n", p)
		}
		pct := func(v float64) string {
			if cycles <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*v/cycles)
		}

		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		if len(units) > 0 {
			fmt.Fprintln(tw, "\tunit\tbusy%\t")
			sort.Slice(units, func(i, j int) bool { return units[i].Label("unit") < units[j].Label("unit") })
			for _, s := range units {
				fmt.Fprintf(tw, "\t%s\t%s\t\n", s.Label("unit"), pct(delta(s)))
			}
		}
		if len(wires) > 0 {
			// Regroup the three wire families by wire name.
			type wireRow struct{ occ, stall, xfer float64 }
			rows := map[string]*wireRow{}
			names := []string{}
			at := func(n string) *wireRow {
				if rows[n] == nil {
					rows[n] = &wireRow{}
					names = append(names, n)
				}
				return rows[n]
			}
			for _, s := range wires {
				n := s.Label("wire")
				switch s.Name {
				case p + "_wire_occupied_cycles_total":
					at(n).occ = delta(s)
				case p + "_wire_stalls_total":
					at(n).stall = delta(s)
				case p + "_wire_transfers_total":
					at(n).xfer = delta(s)
				}
			}
			sort.Strings(names)
			fmt.Fprintln(tw, "\twire\tocc%\tstall%\ttransfers\t")
			for _, n := range names {
				r := rows[n]
				fmt.Fprintf(tw, "\t%s\t%s\t%s\t%.0f\t\n", n, pct(r.occ), pct(r.stall), r.xfer)
			}
		}
		if len(rest) > 0 {
			if elapsed > 0 {
				fmt.Fprintln(tw, "\tseries\tvalue\trate/s\t")
			} else {
				fmt.Fprintln(tw, "\tseries\tvalue\t")
			}
			for _, s := range rest {
				v := delta(s)
				if elapsed > 0 {
					fmt.Fprintf(tw, "\t%s\t%g\t%.1f\t\n", s.Full, v, v/elapsed)
				} else {
					fmt.Fprintf(tw, "\t%s\t%g\t\n", s.Full, v)
				}
			}
		}
		tw.Flush()
	}
}
