package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/obsnet"
)

// freeUDPPort reserves and releases a loopback UDP port for the test
// to hand to both halves.
func freeUDPPort(t *testing.T) int {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := c.LocalAddr().(*net.UDPAddr).Port
	c.Close()
	return port
}

// netReport extracts the NET-REPORT key=value fields from a run's
// output.
func netReport(t *testing.T, out string) map[string]string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "NET-REPORT ") {
			continue
		}
		kv := make(map[string]string)
		for _, f := range strings.Fields(line)[1:] {
			k, v, ok := strings.Cut(f, "=")
			if ok {
				kv[k] = v
			}
		}
		return kv
	}
	t.Fatalf("no NET-REPORT line in output:\n%s", out)
	return nil
}

// fleetBoard renders the fleet board over the one instance at base.
func fleetBoard(t *testing.T, base string) string {
	t.Helper()
	var b strings.Builder
	if err := obsnet.WriteFleetBoard(&b, obsnet.ScrapeAll([]string{base})); err != nil {
		t.Errorf("fleet board over %s: %v", base, err)
	}
	return b.String()
}

// TestNetModeUDPTwoHalves drives both halves of a udp engine in one
// process over real UDP loopback sockets, with a line fault scripted on
// port 0. Both halves must converge and deliver, and each half's
// telemetry endpoint must serve /health and the transport_* series the
// fleet board renders. Through a stall the pair rides it out with zero
// LCP renegotiations. Through the committed blackout, armed with flight
// directories, keepalive dead-peer detection leaves exactly one
// transport-LOS capture per end, the two share one incident, and each
// half's link row reads nothing tracked and nothing lost: its peer's
// recorder is in the other process, so it has no latency pipe.
func TestNetModeUDPTwoHalves(t *testing.T) {
	for _, c := range []struct {
		name    string
		doc     string
		flight  bool   // arm the recorder with a capture directory per half
		rideOut bool   // no LCP renegotiation through the fault
		armed   string // the board's armed column
	}{
		{"udp-stall", `{"name": "udp-stall", "engine": {"links": 1, "line": "udp"},
			"traffic": {"mix": "fixed:256"}, "duration": 600, "bringup_budget": 400000,
			"events": [{"at": 100, "action": "stall", "ticks": 100}],
			"assert": {"circuits": [{"lcp_renegotiations": 0, "rx_errors": 0}]}}`, false, true, "latency"},
		{"udp-blackout", "", true, false, "flight,latency"},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := committed("net/" + c.name)
			if c.doc != "" {
				doc = inline(t, c.doc)
			}
			addr := fmt.Sprintf("127.0.0.1:%d", freeUDPPort(t))
			newHalf := func(listen bool) (simConfig, *half) {
				h := &half{end: "port0_a"}
				cfg := simConfig{scenario: doc, telemetryAddr: "127.0.0.1:0"}
				if listen {
					cfg.listen = addr
				} else {
					h.end, cfg.dial = "port0_z", addr
				}
				if c.flight {
					h.dir = t.TempDir()
					cfg.flightDir = h.dir
				}
				cfg.scrape = func(base string) {
					h.health, _ = scrapeGet(t, base, "/health")
					h.series = seriesMap(t, base)
					h.board = fleetBoard(t, base)
				}
				return cfg, h
			}
			lcfg, l := newHalf(true)
			lerr := make(chan error, 1)
			go func() { lerr <- run(lcfg, &l.out) }()
			// The dialer is the Z half: everything that names its end says
			// _z — the transport series, the protocol series the observed
			// engine exports per port, and the line the fleet board shows.
			dcfg, d := newHalf(false)
			if err := run(dcfg, &d.out); err != nil {
				t.Fatalf("dialer: %v\n%s", err, d.out.String())
			}
			if err := <-lerr; err != nil {
				t.Fatalf("listener: %v\n%s", err, l.out.String())
			}

			lr, dr := netReport(t, l.out.String()), netReport(t, d.out.String())
			if lr["role"] != "A" || dr["role"] != "Z" {
				t.Errorf("roles: listener=%s dialer=%s", lr["role"], dr["role"])
			}
			for name, r := range map[string]map[string]string{"listener": lr, "dialer": dr} {
				if r["delivered"] == "0" {
					t.Errorf("%s delivered nothing: %v", name, r)
				}
				if c.rideOut && r["renegotiations"] != "0" {
					t.Errorf("%s saw %s LCP renegotiations riding the stall, want 0", name, r["renegotiations"])
				}
				if r["rx_errors"] != "0" {
					t.Errorf("%s rx_errors = %s, want 0", name, r["rx_errors"])
				}
			}
			for _, k := range []string{"oneway_p50_us", "oneway_p99_us", "rtt_p50_us"} {
				if _, ok := lr[k]; !ok {
					t.Errorf("NET-REPORT missing %s: %v", k, lr)
				}
			}

			// Each half's board: one instance row — healthy, an uptime, the
			// wire version for skew detection, what is armed; its one line
			// is the end it runs, up; with the recorder, its one link row
			// tracks nothing and loses nothing.
			for name, h := range map[string]*half{"listener": l, "dialer": d} {
				if h.health != http.StatusOK {
					t.Errorf("%s /health code %d, want 200", name, h.health)
				}
				var inst, links [][]string
				var lines []string
				section := ""
				for _, row := range strings.Split(h.board, "\n") {
					f := strings.Fields(row)
					switch {
					case strings.HasPrefix(row, "instance "):
						inst = append(inst, f)
					case strings.HasSuffix(row, ":"):
						section = row
					case len(f) > 2 && strings.HasPrefix(f[1], "port") && section == "transport lines:":
						lines = append(lines, f[1]+" "+f[2])
					case len(f) > 3 && strings.HasPrefix(f[1], "port") && section == "slo board:":
						links = append(links, f[1:4])
					}
				}
				if len(inst) != 1 || len(inst[0]) != 9 || inst[0][2] != "healthy" || !strings.HasSuffix(inst[0][4], "s") ||
					strings.Join(inst[0][5:], " ") != "wire v2 armed: "+c.armed {
					t.Errorf("%s board instance rows %q, want one: healthy, up Ns, wire v2, armed: %s\n%s", name, inst, c.armed, h.board)
				}
				if want := []string{h.end + " up"}; !reflect.DeepEqual(lines, want) {
					t.Errorf("%s board lines %q, want %q\n%s", name, lines, want, h.board)
				}
				var want [][]string
				if c.flight {
					want = [][]string{{h.end, "0", "0"}}
				}
				if !reflect.DeepEqual(links, want) {
					t.Errorf("%s board link rows %q, want %q (link, tracked, lost)\n%s", name, links, want, h.board)
				}
			}
			for _, want := range []string{
				`transport_up{line="port0_a"}`,
				`transport_tx_chunks_total{line="port0_a"}`,
				`transport_rx_chunks_total{line="port0_a"}`,
				`transport_keepalive_probes_total{line="port0_a"}`,
				`transport_oneway_latency_us_count{line="port0_a"}`,
				`transport_rtt_us_count{line="port0_a"}`,
			} {
				if _, ok := l.series[want]; !ok {
					t.Errorf("series %s missing from /metrics", want)
				}
			}
			for _, want := range []string{`transport_up{line="port0_z"}`, `link_lcp_state{link="port0_z"}`} {
				if _, ok := d.series[want]; !ok {
					t.Errorf("dialer: series %s missing from /metrics", want)
				}
			}
			if _, ok := d.series[`transport_up{line="port0_a"}`]; ok {
				t.Error(`dialer calls its only end port0_a; the z side's end is the pair's z`)
			}
			if l.series[`transport_up{line="port0_a"}`] != 1 {
				t.Errorf("transport_up = %v, want 1", l.series[`transport_up{line="port0_a"}`])
			}
			if l.series[`transport_tx_chunks_total{line="port0_a"}`] == 0 {
				t.Error("transport_tx_chunks_total is zero after a measured run")
			}
			if !c.flight {
				return
			}

			// One transport-LOS capture per end, one incident across both.
			var los [2]*flight.Capture
			for i, h := range []*half{l, d} {
				files, _ := filepath.Glob(filepath.Join(h.dir, "*transport-los.p5fr"))
				if len(files) != 1 {
					t.Fatalf("%s: transport-los captures %v, want exactly 1", h.end, files)
				}
				cp, err := flight.ReadFile(files[0])
				if err != nil {
					t.Fatal(err)
				}
				los[i] = cp
			}
			if _, err := obsnet.Join(los[0], los[1]); err != nil {
				t.Errorf("the two transport-los captures do not share an incident: %v", err)
			}
		})
	}
}

// half is what a test keeps of one p5sim half: its report, its capture
// directory and what its telemetry endpoint served.
type half struct {
	out    bytes.Buffer
	dir    string
	end    string // the end it runs
	health int
	series map[string]float64
	board  string
}

// TestNetModeFlagValidation covers the usage errors of a socket engine's
// placement: both halves at once, no transport the format knows, an
// address with no port or a port past the last one.
func TestNetModeFlagValidation(t *testing.T) {
	udp := committed("net/udp-stall")
	for _, c := range []struct {
		name string
		cfg  simConfig
		want string
	}{
		{"listen and dial", simConfig{scenario: udp, listen: "127.0.0.1:1", dial: "127.0.0.1:2"}, "exactly one"},
		{"unknown transport", simConfig{scenario: inline(t, `{"name": "x", "engine": {"links": 1, "line": "sctp"}, "traffic": {"mix": "fixed:64"}, "duration": 1, "assert": {}}`), listen: "127.0.0.1:1"}, "unknown engine line"},
		{"no port", simConfig{scenario: udp, listen: "127.0.0.1"}, "missing port"},
		{"port is not a number", simConfig{scenario: udp, dial: "127.0.0.1:http"}, "bad port"},
		{"last pair past the port range", simConfig{scenario: udp, listen: "127.0.0.1:65535"}, "bad port"},
	} {
		var out bytes.Buffer
		err := run(c.cfg, &out)
		if _, ok := err.(usageError); !ok || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a usageError naming %q", c.name, err, c.want)
		}
	}
}
