package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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

// TestNetModeUDPTwoHalves drives both halves of a udp engine in one
// process over real UDP loopback sockets, with a line fault scripted on
// port 0. Both halves must converge and deliver, and each half's
// telemetry endpoint must serve /health and the transport_* series; both
// endpoints stay up until the test has drawn one board over the two, as
// p5stat -url A,B does: two healthy instance rows speaking wire v2, the
// transport table with its one-way latency column and every line of both
// ends up. Through the committed stall the pair rides it out with zero
// LCP renegotiations. Through the committed blackout, armed with flight
// directories, keepalive dead-peer detection leaves exactly one
// transport-LOS capture per end, the two share one incident, and each
// end's link row reads nothing tracked and nothing lost: its peer's
// recorder is in the other process, so it has no latency pipe.
func TestNetModeUDPTwoHalves(t *testing.T) {
	for _, c := range []struct {
		name    string
		links   int    // pairs in the scenario, one line each per half
		flight  bool   // arm the recorder with a capture directory per half
		rideOut bool   // no LCP renegotiation through the fault
		armed   string // the board's armed column
	}{
		{"udp-stall", 2, false, true, "latency"},
		{"udp-blackout", 1, true, false, "flight,latency"},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc := committed("net/" + c.name)
			addr := fmt.Sprintf("127.0.0.1:%d", freeUDPPort(t))
			// Each half's endpoint, once up, is reported on up and held
			// until the test has scraped both and drawn the board.
			up := make(chan *half, 2)
			drawn := make(chan struct{})
			release := sync.OnceFunc(func() { close(drawn) })
			t.Cleanup(release)
			newHalf := func(listen bool) *half {
				h := &half{end: "a", done: make(chan struct{})}
				cfg := simConfig{scenario: doc, telemetryAddr: "127.0.0.1:0"}
				if listen {
					cfg.listen = addr
				} else {
					h.end, cfg.dial = "z", addr
				}
				if c.flight {
					h.dir = t.TempDir()
					cfg.flightDir = h.dir
				}
				cfg.scrape = func(base string) {
					h.base = base
					up <- h
					<-drawn
				}
				go func() {
					defer close(h.done)
					h.err = run(cfg, &h.out)
				}()
				return h
			}
			// The dialer is the Z half: everything that names its end says
			// _z — the transport series, the protocol series the observed
			// engine exports per port, and the lines the board shows.
			l, d := newHalf(true), newHalf(false)
			for n := 0; n < 2; n++ {
				select {
				case <-up:
				case <-l.done:
					t.Fatalf("listener ended before its endpoint came up: %v\n%s", l.err, l.out.String())
				case <-d.done:
					t.Fatalf("dialer ended before its endpoint came up: %v\n%s", d.err, d.out.String())
				}
			}
			for _, h := range []*half{l, d} {
				h.health, _ = scrapeGet(t, h.base, "/health")
				h.series = seriesMap(t, h.base)
			}
			var b strings.Builder
			if err := obsnet.WriteBoard(&b, obsnet.ScrapeAll([]string{l.base, d.base}, false), nil, 0, false); err != nil {
				t.Fatal(err)
			}
			board := b.String()
			release()
			for _, h := range []*half{l, d} {
				<-h.done
				if h.err != nil {
					t.Fatalf("%s half: %v\n%s", h.end, h.err, h.out.String())
				}
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

			// The board over both halves: one instance row each — healthy,
			// an uptime, the wire version for skew detection, what is
			// armed; the transport table with the one-way latency column
			// and every end's lines up; with the recorder, each end's one
			// link row tracks nothing and loses nothing.
			var inst, links [][]string
			var lines, wantLines []string
			var wantLinks [][]string
			section := ""
			for _, row := range strings.Split(board, "\n") {
				f := strings.Fields(row)
				switch {
				case strings.HasPrefix(row, "instance "):
					inst = append(inst, f)
				case strings.HasSuffix(row, ":"):
					section = row
				case len(f) > 3 && strings.HasPrefix(f[1], "port") && section == "transport lines:":
					lines = append(lines, strings.Join(f[:3], " "))
				case len(f) > 3 && strings.HasPrefix(f[1], "port") && section == "slo board:":
					links = append(links, f[:4])
				}
			}
			for i, h := range []*half{l, d} {
				if i >= len(inst) || len(inst[i]) != 9 || inst[i][1] != h.base || inst[i][2] != "healthy" ||
					!strings.HasSuffix(inst[i][4], "s") || strings.Join(inst[i][5:], " ") != "wire v2 armed: "+c.armed {
					t.Errorf("board instance rows %q, want %s's: healthy, up Ns, wire v2, armed: %s\n%s", inst, h.base, c.armed, board)
				}
				for p := 0; p < c.links; p++ {
					end := fmt.Sprintf("port%d_%s", p, h.end)
					wantLines = append(wantLines, h.base+" "+end+" up")
					if c.flight {
						wantLinks = append(wantLinks, []string{h.base, end, "0", "0"})
					}
				}
			}
			if len(inst) != 2 {
				t.Errorf("board has %d instance rows, want 2\n%s", len(inst), board)
			}
			if !strings.Contains(board, "oneway-p50") {
				t.Errorf("board has no oneway-p50 column\n%s", board)
			}
			sort.Strings(lines)
			sort.Strings(wantLines)
			if !reflect.DeepEqual(lines, wantLines) {
				t.Errorf("board lines %q, want %q\n%s", lines, wantLines, board)
			}
			sort.Slice(links, func(i, j int) bool { return strings.Join(links[i], " ") < strings.Join(links[j], " ") })
			sort.Slice(wantLinks, func(i, j int) bool { return strings.Join(wantLinks[i], " ") < strings.Join(wantLinks[j], " ") })
			if !reflect.DeepEqual(links, wantLinks) {
				t.Errorf("board link rows %q, want %q (instance, link, tracked, lost)\n%s", links, wantLinks, board)
			}

			for name, h := range map[string]*half{"listener": l, "dialer": d} {
				if h.health != http.StatusOK {
					t.Errorf("%s /health code %d, want 200", name, h.health)
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

// half is what a test keeps of one p5sim half: its report and error,
// its capture directory and what its telemetry endpoint served.
type half struct {
	out    bytes.Buffer
	err    error
	done   chan struct{} // closed when the run has returned
	dir    string
	end    string // "a" for the listener, "z" for the dialer
	base   string // its telemetry endpoint
	health int
	series map[string]float64
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
