// Package obsnet is the fleet side of the observatory: it pulls the
// telemetry surfaces one p5sim process exposes over HTTP (/metrics,
// /status) from N processes, merges them under per-instance labels,
// and renders one columnar board covering the whole fleet — per-line
// one-way latency, transport health, SLO burn rates and defect alarms
// across every instance (DESIGN.md §16). It also joins correlated
// flight-capture pairs into a single two-sided incident timeline
// (join.go). p5stat -fleet and p5trace -join are thin shells over this
// package.
package obsnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Instance is one scraped fleet member.
type Instance struct {
	// Addr is the instance's telemetry address as given to scrape
	// (host:port or URL); it doubles as the injected instance label.
	Addr string
	// Series is the parsed /metrics snapshot with the instance label
	// already injected (nil when the scrape failed).
	Series []telemetry.Series
	// Status is the decoded /status document.
	Status transport.StatusDoc
	// Err records a failed or partial scrape; the board renders the
	// instance as down instead of dropping it.
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

// Fetch GETs one telemetry document (/metrics, /status, /slo, /trace)
// with the bounded client: it gives up after 5 s, and refuses a non-200
// answer and a body over 8 MiB.
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
	// /health answers 503 while unhealthy; for the scraped documents a
	// non-200 is a failure.
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("%s: body over the %d MiB bound", url, maxBody>>20)
	}
	return body, nil
}

// scrape pulls one instance's /metrics and /status. The returned
// Instance always carries Addr; Err marks a failed scrape.
func scrape(addr string) Instance {
	inst := Instance{Addr: addr}
	base := baseURL(addr)

	body, err := Fetch(base + "/metrics")
	if err != nil {
		inst.Err = err
		return inst
	}
	series, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		inst.Err = fmt.Errorf("parse %s/metrics: %w", base, err)
		return inst
	}
	inst.Series = telemetry.InjectLabel(series, "instance", addr)

	if body, err = Fetch(base + "/status"); err != nil {
		inst.Err = err
		return inst
	}
	if err := json.Unmarshal(body, &inst.Status); err != nil {
		inst.Err = fmt.Errorf("decode %s/status: %w", base, err)
	}
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

// WriteFleetBoard renders the fleet: one header line per instance
// (health, uptime, wire version, armed subsystems), a per-line
// transport table across all instances (liveness, one-way latency
// p50/p99, RTT p50, wire counters, version-skew drops), and the SLO
// burn-rate/alarm rows. Returns an error only for writer failures.
func WriteFleetBoard(w io.Writer, instances []Instance) error {
	versions := map[int]bool{}
	for _, in := range instances {
		if in.Err != nil {
			fmt.Fprintf(w, "instance %-24s DOWN  (%v)\n", in.Addr, in.Err)
			continue
		}
		info := in.Status.Info
		health := "healthy"
		if !in.Status.Healthy {
			health = "DEGRADED"
		}
		versions[info.WireVersion] = true
		armed := make([]string, 0, 3)
		if info.FlightArmed {
			armed = append(armed, "flight")
		}
		if info.ProfArmed {
			armed = append(armed, "prof")
		}
		if info.LatencyTracing {
			armed = append(armed, "latency")
		}
		if len(armed) == 0 {
			armed = append(armed, "none")
		}
		fmt.Fprintf(w, "instance %-24s %-8s up %6ds  wire v%d  armed: %s\n",
			in.Addr, health, info.UptimeSeconds, info.WireVersion, strings.Join(armed, ","))
	}
	if len(versions) > 1 {
		fmt.Fprintf(w, "WARNING: wire version skew across the fleet (%d distinct versions)\n", len(versions))
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\ninstance\tline\tup\toneway-p50µs\toneway-p99µs\trtt-p50µs\ttx-chunks\trx-chunks\treconn\tresets\trx-drop\tbad-ver\t")
	for _, in := range instances {
		if in.Err != nil {
			continue
		}
		for _, t := range in.Status.Transports {
			up := "up"
			if !t.Up {
				up = "DOWN"
			}
			p50, p99, rtt := "-", "-", "-"
			if t.Latency != nil && t.Latency.Samples > 0 {
				p50 = fmt.Sprint(t.Latency.OneWayP50US)
				p99 = fmt.Sprint(t.Latency.OneWayP99US)
			}
			if t.Latency != nil && t.Latency.RTTSamples > 0 {
				rtt = fmt.Sprint(t.Latency.RTTP50US)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
				in.Addr, t.Name, up, p50, p99, rtt,
				t.Stats.TxChunks, t.Stats.RxChunks,
				t.Stats.Reconnects, t.Stats.Resets,
				t.Stats.RxDropped, t.Stats.RxBadVersion)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return writeSLORows(w, instances)
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
