// Package obsnet is the fleet side of the observatory: it scrapes the
// one document a p5sim process exposes for its state, /metrics, from N
// processes, labels each instance's series with its address, and
// renders one columnar board covering the whole fleet from those series
// alone — instance health, uptime, wire version and armed subsystems,
// the per-line transport table (WriteTransportTable, which p5stat
// -transport renders for one instance), SLO burn rates and alarms
// (DESIGN.md §16). It also joins correlated flight-capture pairs into a
// single two-sided incident timeline (join.go). p5stat -fleet and
// p5trace -join are thin shells over this package.
package obsnet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
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

// Fetch GETs one telemetry document (/metrics, /slo, /trace) with the
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
// instances speak more than one wire version, the per-line transport
// table across all instances, and the SLO burn-rate/alarm rows. Returns
// an error only for writer failures.
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
	return writeSLORows(w, instances)
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

// writeSLORows renders the fleet's SLO state: one row per instance and
// SLO with the worst burn rate and the alarm flag.
func writeSLORows(w io.Writer, instances []Instance) error {
	type row struct {
		instance, slo string
		burnMilli     float64
		alarm         bool
	}
	var rows []row
	for _, in := range instances {
		burns := map[string]float64{}
		alarms := map[string]bool{}
		for _, s := range in.Series {
			switch s.Name {
			case "slo_worst_burn_rate":
				burns[s.Label("slo")] = s.Value
			case "slo_alarm":
				alarms[s.Label("slo")] = s.Value != 0
			}
		}
		for slo, b := range burns {
			rows = append(rows, row{in.Addr, slo, b, alarms[slo]})
		}
	}
	if len(rows) == 0 {
		return nil
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].instance != rows[j].instance {
			return rows[i].instance < rows[j].instance
		}
		return rows[i].slo < rows[j].slo
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\ninstance\tslo\tworst-burn\talarm\t")
	for _, r := range rows {
		alarm := "-"
		if r.alarm {
			alarm = "ALARM"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t\n", r.instance, r.slo, r.burnMilli, alarm)
	}
	return tw.Flush()
}
