// Package obsnet is the fleet side of the observatory: it scrapes the
// one document a p5sim process exposes for its state, /metrics, from N
// processes, labels each instance's series with its address, and
// renders one columnar board covering the whole fleet from those series
// alone — instance health, uptime, wire version and armed subsystems,
// the per-line transport table (WriteTransportTable, which p5stat
// -transport renders for one instance) and the SLO board
// (WriteSLOBoard, likewise for p5stat -slo); DESIGN.md §16. It also
// joins correlated flight-capture pairs into a single two-sided
// incident timeline (join.go). p5stat -fleet and p5trace -join are thin
// shells over this package.
package obsnet

import (
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
	// Series is the parsed /metrics snapshot with the instance label
	// already injected (nil when the scrape failed).
	Series []telemetry.Series
	// Err records a failed scrape; the board renders the instance as
	// down instead of dropping it.
	Err error
}

// client is the scrape HTTP client; a fleet board must not hang on one
// dead instance.
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

// Fetch GETs one telemetry document (/metrics, /trace) with the
// bounded client: it gives up after 5 s, and refuses a non-200 answer
// and a body over 8 MiB.
func Fetch(url string) ([]byte, error) {
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

// scrape pulls one instance's /metrics: one request. The returned
// Instance always carries Addr; Err marks a failed scrape.
func scrape(addr string) Instance {
	inst := Instance{Addr: addr}
	url := baseURL(addr) + "/metrics"
	body, err := Fetch(url)
	if err != nil {
		inst.Err = err
		return inst
	}
	series, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		inst.Err = fmt.Errorf("parse %s: %w", url, err)
		return inst
	}
	inst.Series = telemetry.InjectLabel(series, "instance", addr)
	return inst
}

// ScrapeAll scrapes every address, in order. Failures are carried in
// the per-instance Err rather than aborting the fleet view.
func ScrapeAll(addrs []string) []Instance {
	out := make([]Instance, len(addrs))
	for i, a := range addrs {
		out[i] = scrape(a)
	}
	return out
}

// WriteFleetBoard renders the fleet from the scraped series: one header
// line per instance — healthy while every transport_up is 1, uptime
// from runtime_uptime_seconds, wire version from transport_wire_version,
// and as armed each of the flight_*, prof_* and
// transport_oneway_latency_us families present — a warning when the
// instances speak more than one wire version, then the per-line
// transport table and the SLO board across all instances. Returns an
// error only for writer failures.
func WriteFleetBoard(w io.Writer, instances []Instance) error {
	versions := map[float64]bool{}
	var fleet []telemetry.Series
	for _, in := range instances {
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
	fmt.Fprintln(w)
	if err := WriteTransportTable(w, fleet); err != nil {
		return err
	}
	return WriteSLOBoard(w, fleet, nil)
}

// WriteTransportTable renders the per-line transport table from the
// transport_* series (Instrument's families): liveness, chunk counters,
// wire-level latency (one-way p50/p99 from the sampled wall stamps, RTT
// p50 from keepalive probes), connection churn, keepalive health, drops,
// version-skew arrivals and send-queue backpressure, one row per line.
// Series that carry an instance label (a fleet scrape) get an instance
// column and one row per instance and line.
func WriteTransportTable(w io.Writer, series []telemetry.Series) error {
	type key struct{ instance, line string }
	rows := map[key]map[string]float64{}
	var keys []key
	fleet := false
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
		fleet = fleet || k.instance != ""
	}
	if len(keys) == 0 {
		_, err := fmt.Fprintln(w, "transport: no transport_* series (not a socket-backed run?)")
		return err
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].instance != keys[j].instance {
			return keys[i].instance < keys[j].instance
		}
		return keys[i].line < keys[j].line
	})
	fmt.Fprintln(w, "transport lines:")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	head := "\tline\tup\ttx\trx\toneway-p50µs\toneway-p99µs\trtt-p50µs\treconn\tresets\tprobes\tmisses\ttx-drop\trx-drop\tbad-ver\tq\tq-hw\t"
	if fleet {
		head = "\tinstance" + head
	}
	fmt.Fprintln(tw, head)
	for _, k := range keys {
		// Latency columns come from the per-line histograms rather than
		// the flattened value map: quantiles need the bucket structure.
		match := []telemetry.Label{telemetry.L("line", k.line)}
		if fleet {
			match = append(match, telemetry.L("instance", k.instance))
			fmt.Fprintf(tw, "\t%s", k.instance)
		}
		v := rows[k]
		quant := func(name string, q float64) string {
			if v[name+"_count"] == 0 {
				return "-"
			}
			p, _ := telemetry.SeriesQuantile(series, name, q, match...)
			return fmt.Sprint(p)
		}
		up := "DOWN"
		if v["transport_up"] == 1 {
			up = "up"
		}
		fmt.Fprintf(tw, "\t%s\t%s\t%.0f\t%.0f\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t\n",
			k.line, up,
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

// WriteSLOBoard renders the error-budget board from the slo_* and
// flight_* series: one row per SLO — the three objectives' burn rates,
// the worst, the lifetime budget left, the SLO's p99 estimate and the
// alarm — and one row per recorded link — frames tracked, lost and in
// flight (tracked − lost − delivered), the end-to-end p99 ("-" before
// the first delivery) and captures. Series that carry an instance label
// (a fleet scrape) get an instance column. A value an instance does not
// export renders as "-". With events (one instance's /trace), each
// link's slow-frame events follow as its latency exemplars: the bucket
// of flight_e2e_latency_ticks the latency falls in, the latency, the
// frame ID and the arrival tick. Renders nothing when the series hold
// no SLO and no recorder; returns an error only for writer failures.
func WriteSLOBoard(w io.Writer, series []telemetry.Series, events []telemetry.Event) error {
	type key struct{ instance, name string }
	slos, links := map[key]map[string]float64{}, map[key]map[string]float64{}
	var sloKeys, linkKeys []key
	var bounds []float64
	fleet := false
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
		fleet = fleet || k.instance != ""
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
	// row writes one table row: the instance column on a fleet board,
	// then the cells.
	row := func(instance string, cells ...string) {
		if fleet {
			fmt.Fprintf(tw, "\t%s", instance)
		}
		fmt.Fprintf(tw, "\t%s\t\n", strings.Join(cells, "\t"))
	}
	num := func(v map[string]float64, col, format string, scale float64) string {
		x, ok := v[col]
		if !ok {
			return "-"
		}
		return fmt.Sprintf(format, x*scale)
	}
	fmt.Fprintln(w, "slo board:")
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
			match := []telemetry.Label{telemetry.L("link", k.name)}
			if fleet {
				match = append(match, telemetry.L("instance", k.instance))
			}
			p99 := "-"
			if q, ok := telemetry.SeriesQuantile(series, "flight_e2e_latency_ticks", 0.99, match...); ok {
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
	return writeExemplars(w, events, bounds)
}

// writeExemplars renders the slow-frame events, grouped by the link
// that received them in the order each first appears, under the
// finite latency-bucket bounds (the +Inf bucket above them).
func writeExemplars(w io.Writer, events []telemetry.Event, bounds []float64) error {
	byLink := map[string][]telemetry.Event{}
	var order []string
	for _, e := range events {
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
		fmt.Fprintln(tw, "\tbucket ≤\tlatency\tframe id\tat tick\t")
		for _, e := range byLink[link] {
			le := "+Inf"
			if i := sort.SearchFloat64s(bounds, float64(e.V2)); i < len(bounds) && !math.IsInf(bounds[i], 1) {
				le = fmt.Sprint(bounds[i])
			}
			fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t\n", le, e.V2, e.V1, e.At)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
