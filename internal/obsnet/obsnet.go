// Package obsnet is the board of the observatory: it scrapes the one
// document a p5sim process exposes for its state, /metrics, from one or
// more processes, labels each instance's series with its address, and
// draws one columnar board from those series alone (WriteBoard) — one
// row per instance (health, uptime, wire version, armed subsystems, or
// DOWN), each instance's stage tables, the per-line transport table and
// the SLO board across all instances; DESIGN.md §16. A single process is
// drawn as a fleet of one. It also joins correlated flight-capture
// pairs into a single two-sided incident timeline (join.go). p5stat and
// p5trace -join are thin shells over this package.
package obsnet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
)

// Instance is one scraped fleet member.
type Instance struct {
	// Addr is the instance's telemetry address as given to scrape
	// (host:port or URL); it doubles as the injected instance label.
	Addr string
	// Series is the parsed /metrics document with the instance label
	// already injected (nil when the scrape failed).
	Series []telemetry.Series
	// Trace is the instance's /trace events, when the scrape asked for
	// them.
	Trace []telemetry.Event
	// Err records a failed scrape; the board renders the instance as
	// down instead of dropping it.
	Err error
}

// client is the scrape HTTP client; a board must not hang on one dead
// instance.
var client = &http.Client{Timeout: 5 * time.Second}

// maxBody bounds one fetched document. A body over it is refused, never
// cut short: a board rendered from a truncated exposition would show a
// fleet that is not there.
const maxBody = 8 << 20

func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// fetch GETs one telemetry document (/metrics, /trace) with the bounded
// client: it gives up after 5 s, and refuses a non-200 answer and a body
// over 8 MiB.
func fetch(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("%s: body over the %d MiB bound", url, maxBody>>20)
	}
	return body, nil
}

// scrape pulls one instance's /metrics, and with trace its /trace: one
// request per document. The returned Instance always carries Addr; Err
// marks a failed scrape.
func scrape(addr string, trace bool) Instance {
	inst := Instance{Addr: addr}
	url := baseURL(addr) + "/metrics"
	body, err := fetch(url)
	if err != nil {
		inst.Err = err
		return inst
	}
	series, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		inst.Err = fmt.Errorf("parse %s: %w", url, err)
		return inst
	}
	if trace {
		url = baseURL(addr) + "/trace"
		if body, err = fetch(url); err == nil {
			inst.Trace, err = telemetry.ReadEvents(bytes.NewReader(body))
		}
		if err != nil {
			inst.Err = fmt.Errorf("%s: %w", url, err)
			return inst
		}
	}
	inst.Series = telemetry.InjectLabel(series, "instance", addr)
	return inst
}

// ScrapeAll scrapes every address, in order; with trace each
// instance's /trace too. Failures are carried in the per-instance Err
// rather than aborting the board.
func ScrapeAll(addrs []string, trace bool) []Instance {
	out := make([]Instance, len(addrs))
	for i, a := range addrs {
		out[i] = scrape(a, trace)
	}
	return out
}

// WriteBoard draws the board over instances: one identity row per
// instance — healthy while every transport_up is 1, uptime from
// runtime_uptime_seconds, wire version from transport_wire_version, and
// as armed each of the flight_*, prof_* and transport_oneway_latency_us
// families present, or DOWN with the scrape's error — and a warning when
// the instances speak more than one wire version; then each reachable
// instance's stage tables; then, when any transport_* series exist, the
// per-line transport table, and when any slo_* or flight_* series
// exist, the SLO board, each across all instances. prev, when not nil,
// is the previous scrape of the same addresses and window the time
// since: the stage tables then show each counter's change over the
// window and its rate. With exemplars, each link's slow-frame events
// from the instances' Trace follow the SLO board. Returns an error only
// for writer failures.
func WriteBoard(w io.Writer, cur, prev []Instance, window time.Duration, exemplars bool) error {
	versions := map[float64]bool{}
	var fleet []telemetry.Series
	for _, in := range cur {
		if in.Err != nil {
			fmt.Fprintf(w, "instance %-24s DOWN  (%v)\n", in.Addr, in.Err)
			continue
		}
		fleet = append(fleet, in.Series...)
		health, uptime, wire := "healthy", "-", "-"
		var flight, prof, latency bool
		for _, s := range in.Series {
			switch {
			case s.Name == "transport_up" && s.Value != 1:
				health = "DEGRADED"
			case s.Name == "runtime_uptime_seconds":
				uptime = fmt.Sprintf("%.0fs", s.Value)
			case s.Name == "transport_wire_version":
				versions[s.Value] = true
				wire = fmt.Sprintf("v%.0f", s.Value)
			case strings.HasPrefix(s.Name, "flight_"):
				flight = true
			case strings.HasPrefix(s.Name, "prof_"):
				prof = true
			case strings.HasPrefix(s.Name, "transport_oneway_latency_us_"):
				latency = true
			}
		}
		armed := make([]string, 0, 3)
		if flight {
			armed = append(armed, "flight")
		}
		if prof {
			armed = append(armed, "prof")
		}
		if latency {
			armed = append(armed, "latency")
		}
		if len(armed) == 0 {
			armed = append(armed, "none")
		}
		fmt.Fprintf(w, "instance %-24s %-8s up %7s  wire %s  armed: %s\n",
			in.Addr, health, uptime, wire, strings.Join(armed, ","))
	}
	if len(versions) > 1 {
		fmt.Fprintf(w, "WARNING: wire version skew across the fleet (%d distinct versions)\n", len(versions))
	}
	for i, in := range cur {
		if in.Err != nil {
			continue
		}
		var before []telemetry.Series
		if i < len(prev) && prev[i].Addr == in.Addr {
			before = prev[i].Series
		}
		fmt.Fprintln(w)
		if err := writeStages(w, in, before, window.Seconds()); err != nil {
			return err
		}
	}
	if err := writeTransportTable(w, fleet); err != nil {
		return err
	}
	var traced []Instance
	if exemplars {
		traced = cur
	}
	return writeSLOBoard(w, fleet, traced)
}

// writeStages draws one instance's stage tables: its series grouped by
// name prefix (p5, sonet, link, ...), a prefix with a cycle clock
// (<prefix>_cycles_total) showing each unit's busy share and each
// wire's occupancy and stall shares of it. prev (the instance's previous
// scrape) turns every cumulative series — a counter or a histogram's
// _bucket, _sum or _count, by the exposition's naming convention — into
// its change since; elapsed > 0 adds a per-second rate column, which a
// gauge leaves "-".
func writeStages(w io.Writer, in Instance, prev []telemetry.Series, elapsed float64) error {
	prevVal := map[string]float64{}
	for _, s := range prev {
		prevVal[s.Full] = s.Value
	}
	cumulative := func(s telemetry.Series) bool {
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(s.Name, suffix) {
				return true
			}
		}
		return false
	}
	delta := func(s telemetry.Series) float64 {
		if cumulative(s) {
			return s.Value - prevVal[s.Full]
		}
		return s.Value
	}

	byPrefix := map[string][]telemetry.Series{}
	for _, s := range in.Series {
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
		cycles := 0.0
		var units, wires, rest []telemetry.Series
		for _, s := range byPrefix[p] {
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
			fmt.Fprintf(w, "%s %s: %.0f cycles\n", in.Addr, p, cycles)
		} else {
			fmt.Fprintf(w, "%s %s:\n", in.Addr, p)
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
				switch {
				case elapsed <= 0:
					fmt.Fprintf(tw, "\t%s\t%g\t\n", local(s), v)
				case cumulative(s):
					fmt.Fprintf(tw, "\t%s\t%g\t%.1f\t\n", local(s), v, v/elapsed)
				default:
					fmt.Fprintf(tw, "\t%s\t%g\t-\t\n", local(s), v)
				}
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// local is s's identity as its own instance exported it: the name and
// every label but the injected instance, sorted by key.
func local(s telemetry.Series) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if k != "instance" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return s.Name
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + strconv.Quote(s.Labels[k])
	}
	return s.Name + "{" + strings.Join(pairs, ",") + "}"
}

// writeTransportTable renders the per-line transport table from the
// transport_* series (transport.Instrument's families): liveness, chunk
// counters, wire-level latency (one-way p50/p99 from the sampled wall
// stamps, RTT p50 from keepalive probes), connection churn, keepalive
// health, drops, version-skew arrivals and send-queue backpressure, one
// row per instance and line. Renders nothing without transport series.
func writeTransportTable(w io.Writer, series []telemetry.Series) error {
	type key struct{ instance, line string }
	rows := map[key]map[string]float64{}
	var keys []key
	for _, s := range series {
		k := key{s.Label("instance"), s.Label("line")}
		if !strings.HasPrefix(s.Name, "transport_") || k.line == "" {
			continue
		}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			keys = append(keys, k)
		}
		rows[k][s.Name] = s.Value
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].instance != keys[j].instance {
			return keys[i].instance < keys[j].instance
		}
		return keys[i].line < keys[j].line
	})
	fmt.Fprintln(w, "\ntransport lines:")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\tinstance\tline\tup\ttx\trx\toneway-p50µs\toneway-p99µs\trtt-p50µs\treconn\tresets\tprobes\tmisses\ttx-drop\trx-drop\tbad-ver\tq\tq-hw\t")
	for _, k := range keys {
		// Latency columns come from the per-line histograms rather than
		// the flattened value map: quantiles need the bucket structure.
		v := rows[k]
		quant := func(name string, q float64) string {
			if v[name+"_count"] == 0 {
				return "-"
			}
			p, _ := telemetry.SeriesQuantile(series, name, q, telemetry.L("line", k.line), telemetry.L("instance", k.instance))
			return fmt.Sprint(p)
		}
		up := "DOWN"
		if v["transport_up"] == 1 {
			up = "up"
		}
		fmt.Fprintf(tw, "\t%s\t%s\t%s\t%.0f\t%.0f\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t\n",
			k.instance, k.line, up,
			v["transport_tx_chunks_total"], v["transport_rx_chunks_total"],
			quant("transport_oneway_latency_us", 0.50),
			quant("transport_oneway_latency_us", 0.99),
			quant("transport_rtt_us", 0.50),
			v["transport_reconnects_total"], v["transport_resets_total"],
			v["transport_keepalive_probes_total"], v["transport_keepalive_misses_total"],
			v["transport_tx_dropped_total"], v["transport_rx_dropped_total"],
			v["transport_rx_bad_version_total"],
			v["transport_queue_depth"], v["transport_queue_high_water"])
	}
	return tw.Flush()
}

// writeSLOBoard renders the error-budget board from the slo_* and
// flight_* series: one row per instance and SLO — the three objectives'
// burn rates, the worst, the lifetime budget left, the SLO's p99
// estimate and the alarm — and one row per instance and recorded link —
// frames tracked, lost and in flight (tracked − lost − delivered), the
// end-to-end p99 ("-" before the first delivery) and captures. A value
// an instance does not export renders as "-". The slow-frame events in
// traced's Trace follow as latency exemplars (writeExemplars). Renders
// nothing when the series hold no SLO and no recorder.
func writeSLOBoard(w io.Writer, series []telemetry.Series, traced []Instance) error {
	type key struct{ instance, name string }
	slos, links := map[key]map[string]float64{}, map[key]map[string]float64{}
	var sloKeys, linkKeys []key
	var bounds []float64
	for _, s := range series {
		rows, keys, k, col := slos, &sloKeys, key{s.Label("instance"), s.Label("slo")}, s.Name
		switch s.Name {
		case "slo_burn_rate":
			col += "/" + s.Label("objective")
		case "slo_worst_burn_rate", "slo_error_budget_remaining", "slo_p99_latency_ticks", "slo_alarm":
		case "flight_frames_tracked_total", "flight_frames_lost_total", "flight_captures_total", "flight_e2e_latency_ticks_count":
			rows, keys, k = links, &linkKeys, key{s.Label("instance"), s.Label("link")}
		case "flight_e2e_latency_ticks_bucket":
			if le, err := strconv.ParseFloat(s.Label("le"), 64); err == nil && !slices.Contains(bounds, le) {
				bounds = append(bounds, le)
			}
			continue
		default:
			continue
		}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			*keys = append(*keys, k)
		}
		rows[k][col] = s.Value
	}
	if len(sloKeys) == 0 && len(linkKeys) == 0 {
		return nil
	}
	byKey := func(keys []key) {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].instance != keys[j].instance {
				return keys[i].instance < keys[j].instance
			}
			return keys[i].name < keys[j].name
		})
	}
	byKey(sloKeys)
	byKey(linkKeys)
	sort.Float64s(bounds)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	row := func(cells ...string) { fmt.Fprintf(tw, "\t%s\t\n", strings.Join(cells, "\t")) }
	num := func(v map[string]float64, col, format string, scale float64) string {
		x, ok := v[col]
		if !ok {
			return "-"
		}
		return fmt.Sprintf(format, x*scale)
	}
	fmt.Fprintln(w, "\nslo board:")
	if len(sloKeys) > 0 {
		row("instance", "slo", "loss burn", "p99 burn", "failover burn", "worst", "budget left", "p99 ticks", "alarm")
		for _, k := range sloKeys {
			v := slos[k]
			alarm := "-"
			if v["slo_alarm"] != 0 {
				alarm = "ALARM"
			}
			row(k.instance, k.name,
				num(v, "slo_burn_rate/frame_loss", "%.3f", 1),
				num(v, "slo_burn_rate/p99_latency", "%.3f", 1),
				num(v, "slo_burn_rate/failover", "%.3f", 1),
				num(v, "slo_worst_burn_rate", "%.3f", 1),
				num(v, "slo_error_budget_remaining", "%.1f%%", 100),
				num(v, "slo_p99_latency_ticks", "%.0f", 1),
				alarm)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(linkKeys) > 0 {
		row("instance", "link", "tracked", "lost", "in flight", "p99 ticks", "captures")
		for _, k := range linkKeys {
			v := links[k]
			p99 := "-"
			if q, ok := telemetry.SeriesQuantile(series, "flight_e2e_latency_ticks", 0.99,
				telemetry.L("link", k.name), telemetry.L("instance", k.instance)); ok {
				p99 = fmt.Sprint(q)
			}
			inFlight := v["flight_frames_tracked_total"] - v["flight_frames_lost_total"] - v["flight_e2e_latency_ticks_count"]
			row(k.instance, k.name,
				num(v, "flight_frames_tracked_total", "%.0f", 1),
				num(v, "flight_frames_lost_total", "%.0f", 1),
				fmt.Sprintf("%.0f", inFlight), p99,
				num(v, "flight_captures_total", "%.0f", 1))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return writeExemplars(w, traced, bounds)
}

// writeExemplars renders each instance's slow-frame events, grouped by
// the link that received them in the order each first appears: the
// finite latency-bucket bound above the latency (+Inf past the last),
// the latency, the frame ID and the arrival tick.
func writeExemplars(w io.Writer, traced []Instance, bounds []float64) error {
	for _, in := range traced {
		byLink := map[string][]telemetry.Event{}
		var order []string
		for _, e := range in.Trace {
			if e.Name != "slow-frame" {
				continue
			}
			link := strings.TrimPrefix(e.Scope, "link:")
			if byLink[link] == nil {
				order = append(order, link)
			}
			byLink[link] = append(byLink[link], e)
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		for _, link := range order {
			fmt.Fprintf(w, "exemplars %s:\n", link)
			fmt.Fprintln(tw, "\tinstance\tbucket ≤\tlatency\tframe id\tat tick\t")
			for _, e := range byLink[link] {
				le := "+Inf"
				if i := sort.SearchFloat64s(bounds, float64(e.V2)); i < len(bounds) && !math.IsInf(bounds[i], 1) {
					le = fmt.Sprint(bounds[i])
				}
				fmt.Fprintf(tw, "\t%s\t%s\t%d\t%d\t%d\t\n", in.Addr, le, e.V2, e.V1, e.At)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}
