package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"

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
// process over real UDP loopback sockets, with a stall window scripted
// on port 0's line. Both halves must converge, ride the stall out with
// zero LCP renegotiations, and each half's telemetry endpoint must
// serve /health and the transport_* series the fleet board renders.
func TestNetModeUDPTwoHalves(t *testing.T) {
	addr := fmt.Sprintf("127.0.0.1:%d", freeUDPPort(t))
	doc := inline(t, `{"name": "udp-stall", "engine": {"links": 1, "line": "udp"},
		"traffic": {"mix": "fixed:256"}, "duration": 600, "bringup_budget": 400000,
		"events": [{"at": 100, "action": "stall", "ticks": 100}],
		"assert": {"circuits": [{"lcp_renegotiations": 0, "rx_errors": 0}]}}`)

	var healthCode int
	var series map[string]float64
	var board string
	lcfg := simConfig{scenario: doc, listen: addr, telemetryAddr: "127.0.0.1:0"}
	lcfg.scrape = func(base string) {
		healthCode, _ = scrapeGet(t, base, "/health")
		series = seriesMap(t, base)
		board = fleetBoard(t, base)
	}
	var lout bytes.Buffer
	lerr := make(chan error, 1)
	go func() { lerr <- run(lcfg, &lout) }()

	// The dialer is the Z half: everything that names its end says _z —
	// the transport series, the protocol series the observed engine now
	// exports per port, and the line the fleet board shows.
	var dseries map[string]float64
	var dboard string
	dcfg := simConfig{scenario: doc, dial: addr, telemetryAddr: "127.0.0.1:0"}
	dcfg.scrape = func(base string) {
		dseries = seriesMap(t, base)
		dboard = fleetBoard(t, base)
	}
	var dout bytes.Buffer
	if err := run(dcfg, &dout); err != nil {
		t.Fatalf("dialer: %v\n%s", err, dout.String())
	}
	if err := <-lerr; err != nil {
		t.Fatalf("listener: %v\n%s", err, lout.String())
	}

	lr, dr := netReport(t, lout.String()), netReport(t, dout.String())
	if lr["role"] != "A" || dr["role"] != "Z" {
		t.Errorf("roles: listener=%s dialer=%s", lr["role"], dr["role"])
	}
	for name, r := range map[string]map[string]string{"listener": lr, "dialer": dr} {
		if r["delivered"] == "0" {
			t.Errorf("%s delivered nothing: %v", name, r)
		}
		if r["renegotiations"] != "0" {
			t.Errorf("%s saw %s LCP renegotiations riding the stall, want 0", name, r["renegotiations"])
		}
		if r["rx_errors"] != "0" {
			t.Errorf("%s rx_errors = %s, want 0", name, r["rx_errors"])
		}
	}

	if healthCode != http.StatusOK {
		t.Errorf("/health code %d, want 200", healthCode)
	}
	// Each half's board row: healthy, an uptime, the wire version for
	// skew detection, latency tracing armed and no flight recorder; its
	// one line is the end it runs, up.
	for name, c := range map[string]struct{ board, line string }{
		"listener": {board, "port0_a"}, "dialer": {dboard, "port0_z"},
	} {
		var inst [][]string
		var lines []string
		for _, l := range strings.Split(c.board, "\n") {
			f := strings.Fields(l)
			if strings.HasPrefix(l, "instance ") {
				inst = append(inst, f)
			} else if len(f) > 2 && strings.HasPrefix(f[1], "port") {
				lines = append(lines, f[1]+" "+f[2])
			}
		}
		if len(inst) != 1 || len(inst[0]) != 9 || inst[0][2] != "healthy" || !strings.HasSuffix(inst[0][4], "s") ||
			strings.Join(inst[0][5:], " ") != "wire v2 armed: latency" {
			t.Errorf("%s board instance rows %q, want one: healthy, up Ns, wire v2, armed: latency\n%s", name, inst, c.board)
		}
		if want := []string{c.line + " up"}; !reflect.DeepEqual(lines, want) {
			t.Errorf("%s board lines %q, want %q\n%s", name, lines, want, c.board)
		}
	}
	for _, k := range []string{"oneway_p50_us", "oneway_p99_us", "rtt_p50_us"} {
		if _, ok := lr[k]; !ok {
			t.Errorf("NET-REPORT missing %s: %v", k, lr)
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
		if _, ok := series[want]; !ok {
			t.Errorf("series %s missing from /metrics", want)
		}
	}
	for _, want := range []string{`transport_up{line="port0_z"}`, `link_lcp_state{link="port0_z"}`} {
		if _, ok := dseries[want]; !ok {
			t.Errorf("dialer: series %s missing from /metrics", want)
		}
	}
	if _, ok := dseries[`transport_up{line="port0_a"}`]; ok {
		t.Error(`dialer calls its only end port0_a; the z side's end is the pair's z`)
	}
	if series[`transport_up{line="port0_a"}`] != 1 {
		t.Errorf("transport_up = %v, want 1", series[`transport_up{line="port0_a"}`])
	}
	if series[`transport_tx_chunks_total{line="port0_a"}`] == 0 {
		t.Error("transport_tx_chunks_total is zero after a measured run")
	}
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
