package scenario

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	gigapos "repro"
	"repro/internal/flight"
	"repro/internal/obsnet"
	"repro/internal/telemetry"
)

// renderBoard runs s armed with a registry and a tracer and, while the
// run is still up, serves them the way p5sim -telemetry does and draws
// the board over it the way p5stat does: from one /metrics scrape, plus
// with exemplars the /trace events. check sees the board's rows, field
// by field and without the instance column, beside the run's in-process
// recorders and SLOs and published, which reads a series in process:
// from the registry, without the HTTP scrape, the text format or the
// board in between.
func renderBoard(t *testing.T, s *Scenario, exemplars bool, check func(rows [][]string, res *Result, published func(string) float64)) {
	t.Helper()
	reg, tr := telemetry.NewRegistry(), telemetry.NewTracer(4096)
	o := gigapos.Observation{Registry: reg, Tracer: tr, Flight: &flight.Config{Dir: t.TempDir()}}
	live := false
	_, err := s.Run(RunConfig{Observation: o, Live: func(res *Result) error {
		live = true
		srv := httptest.NewServer(telemetry.Mux(reg, tr))
		defer srv.Close()
		instances := obsnet.ScrapeAll([]string{srv.URL}, exemplars)
		if err := instances[0].Err; err != nil {
			return err
		}
		var board strings.Builder
		if err := obsnet.WriteBoard(&board, instances, nil, 0, exemplars); err != nil {
			return err
		}
		t.Logf("board:\n%s", board.String())
		var rows [][]string
		for _, l := range strings.Split(board.String(), "\n") {
			r := strings.Fields(l)
			if len(r) > 0 && r[0] == srv.URL {
				r = r[1:]
			}
			rows = append(rows, r)
		}
		check(rows, res, func(series string) float64 {
			v, ok := seriesValues(reg)[series]
			if !ok {
				t.Fatalf("%s not published", series)
			}
			return v
		})
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !live {
		t.Fatal("the run never came up")
	}
}

// TestSLOBoardMatchesTheRun: the SLO board p5stat draws from a scrape
// of the committed protected drill says what the run's SLOs and
// recorders hold in process — every burn, budget, p99, alarm, tracked,
// lost, in-flight and capture count.
func TestSLOBoardMatchesTheRun(t *testing.T) {
	s, err := Load("../../scenarios/protected-working-cut.json")
	if err != nil {
		t.Fatal(err)
	}
	renderBoard(t, s, false, func(rows [][]string, res *Result, published func(string) float64) {
		find := func(name string, cells int) []string {
			for _, r := range rows {
				if len(r) == cells && r[0] == name {
					return r
				}
			}
			t.Fatalf("no %d-cell row for %s", cells, name)
			return nil
		}
		// The SLO rows against the SLOs: the worst burn and the alarm
		// through their own accessors, each objective's burn, the budget
		// and the p99 as the SLO publishes them.
		if len(res.slos) != 2 {
			t.Fatalf("%d SLOs in the run, want 2", len(res.slos))
		}
		for name, slo := range res.slos {
			r := find(name, 8)
			want := []string{
				fmt.Sprintf("%.3f", published(`slo_burn_rate{slo="`+name+`",objective="frame_loss"}`)),
				fmt.Sprintf("%.3f", published(`slo_burn_rate{slo="`+name+`",objective="p99_latency"}`)),
				fmt.Sprintf("%.3f", published(`slo_burn_rate{slo="`+name+`",objective="failover"}`)),
				fmt.Sprintf("%.3f", float64(slo.WorstBurnMilli())/1000),
				fmt.Sprintf("%.1f%%", 100*published(`slo_error_budget_remaining{slo="`+name+`"}`)),
				fmt.Sprintf("%.0f", published(`slo_p99_latency_ticks{slo="`+name+`"}`)),
				map[bool]string{false: "-", true: "ALARM"}[slo.Alarmed()],
			}
			if got := r[1:]; strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("slo %s row %v, want %v", name, got, want)
			}
		}
		// The link rows against the recorders. In flight is what Flush
		// retires; a link with no delivery has no p99.
		if len(res.recs) != 2 {
			t.Fatalf("%d recorders in the run, want 2", len(res.recs))
		}
		for _, rec := range res.recs {
			r := find(rec.Name(), 6)
			lost := rec.Lost()
			rec.Flush()
			inFlight := rec.Lost() - lost
			p99 := "-"
			if rec.Tracked() > lost+inFlight {
				p99 = fmt.Sprint(rec.P99())
			}
			want := []string{fmt.Sprint(rec.Tracked()), fmt.Sprint(lost), fmt.Sprint(inFlight), p99, fmt.Sprint(rec.Captures())}
			if got := r[1:]; strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("link %s row %v, want %v", rec.Name(), got, want)
			}
			if r[1] == "0" {
				t.Errorf("link %s tracked nothing", rec.Name())
			}
		}
	})
}

// TestSLOBoardExemplars: p5stat -exemplars renders the slow-frame
// events at /trace, and each names a frame the sending end's black box
// recorded as slow. No committed drill delivers a frame 32 ticks late
// (every one lands within 2 ticks), so a one-pair engine holds its port
// 0 line for 64 ticks and then releases the backlog: one run of slow
// arrivals per direction, so at most one event per direction.
func TestSLOBoardExemplars(t *testing.T) {
	doc := `{"name": "held-line", "engine": {"links": 1, "line": "pipe"},
		"traffic": {"mix": "fixed:64"}, "duration": 400,
		"events": [{"at": 100, "action": "stall", "ticks": 64}], "assert": {}}`
	path := filepath.Join(t.TempDir(), "held-line.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	renderBoard(t, s, true, func(rows [][]string, res *Result, _ func(string) float64) {
		ids := map[string]map[string]bool{} // receiving end → slow frames its peer's black box recorded
		for _, rec := range res.recs {
			peer := strings.TrimSuffix(rec.Name(), "_a") + "_z"
			if strings.HasSuffix(rec.Name(), "_z") {
				peer = strings.TrimSuffix(rec.Name(), "_z") + "_a"
			}
			ids[peer] = map[string]bool{}
			for _, e := range rec.Trigger("oam").Events {
				if e.Name == "slow-frame" {
					ids[peer][fmt.Sprint(e.V1)] = true
				}
			}
		}
		link, rowsPer, resolved, slow := "", map[string]int{}, 0, 0
		for _, r := range rows {
			switch {
			case len(r) == 2 && r[0] == "exemplars":
				link = strings.TrimSuffix(r[1], ":")
			case link != "" && len(r) == 4 && r[0] != "bucket":
				slow++
				rowsPer[link]++
				if lat, _ := strconv.Atoi(r[1]); lat < 32 {
					t.Errorf("exemplar row %v: latency under the 32-tick slow-frame threshold", r)
				}
				if ids[link][r[2]] {
					resolved++
				}
			}
		}
		if slow == 0 || resolved != slow {
			t.Errorf("%d slow-frame rows, %d of them in the sender's black box; want at least one, all resolved", slow, resolved)
		}
		for link, n := range rowsPer {
			if n > 1 {
				t.Errorf("%s: %d slow-frame rows for one stall, want at most 1", link, n)
			}
		}
	})
}

// seriesValues reads reg's series into a map of full series name
// (name plus label block) to value.
func seriesValues(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Series() {
		out[s.Full] = s.Value
	}
	return out
}
