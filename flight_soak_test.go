package gigapos

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// TestChaosSoakFlightRecorder is the armed counterpart of the chaos
// soak: a supervised pair rides an STM-1 section through two LOS line
// cuts and a corruption burst with the flight recorder attached on both
// ends and live IPv4 traffic flowing a→b. The headline assertions are
// the black-box bookkeeping invariants — every supervisor restart and
// every defect outage dumped exactly one capture, every capture file on
// disk decodes losslessly back to its in-memory twin — plus a live
// latency observatory: every sent datagram tracked once, losses
// through the cuts, and the SLO evaluator burned budget through the
// outage windows.
func TestChaosSoakFlightRecorder(t *testing.T) {
	const fb = 2430 // STM-1 frame bytes; one frame per direction per tick

	cfg := LinkConfig{
		EchoPeriod: 8, Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfg.Magic, cfg.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)

	// Arm before traffic: recorders on both ends, paired so deliveries
	// at b complete a's departure pipe, with an SLO on each receive side
	// (soak_z grades the a→b direction the traffic flows in).
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	var w Watch
	w.ObservePair(Observation{Registry: reg, Flight: &flight.Config{Dir: dir}}, "soak", a, b)
	ra, rb, slo := a.Flight(), b.Flight(), w.SLOs["soak_z"]

	// SONET carry a→b with the fault injector in the middle; b→a is a
	// clean direct line (same topology as the unarmed soak).
	la, lb := sonet.NewLinePair(sonet.STM1)
	dfB := lb.Deframer()
	dfB.Defects.OnEvent = func(sonet.DefectEvent) {
		b.NotifyDefects(uint32(dfB.Defects.Active()))
	}

	var script fault.Script
	script.LOS(120*fb, 120*fb)           // line cut #1: 120 frames
	script.Corrupt(400*fb+300, 48, 0x0F) // scorched octets mid-recovery era
	script.LOS(480*fb, 60*fb)            // line cut #2: 60 frames
	inj := fault.NewInjector(script)

	payload := make([]byte, 64)
	payload[0] = 0x45
	var sent, delivered int
	now := int64(0)
	var rx [][]byte
	tickOnce := func() {
		now++
		a.Advance(now)
		b.Advance(now)
		if a.IPReady() {
			if err := a.SendIPv4(payload); err == nil {
				sent++
			}
		}
		la.Send(a.Output())
		la.Tick(now)
		rx = lb.Recv(rx[:0])
		b.InputBatch(rx)
		delivered += len(b.Received())
		if out := b.Output(); len(out) > 0 {
			a.Input(out)
		}
	}

	a.Open()
	b.Open()
	a.Up()
	b.Up()
	for i := 0; i < 30; i++ {
		tickOnce()
	}
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean line")
	}

	la.Inject = inj.Apply
	for i := 0; i < 640; i++ {
		tickOnce()
	}
	la.Inject = nil
	if !inj.Done() {
		t.Fatal("script not fully fired")
	}
	healBudget := 0
	for !(a.IPReady() && b.IPReady()) {
		tickOnce()
		healBudget++
		if healBudget > 400 {
			t.Fatalf("links did not heal within budget: a=%v b=%v",
				a.lcpA.State(), b.lcpA.State())
		}
	}
	// Let the loss horizon retire anything cut down by the second LOS.
	for i := 0; i < 300; i++ {
		tickOnce()
	}

	// Black-box invariant: exactly one capture per trigger, on both
	// ends. a is blind to the defects (its receive line is clean), so
	// its captures are all echo-driven supervisor restarts; b dumps once
	// per defect outage and once per restart.
	supA, supB := a.Supervisor(), b.Supervisor()
	if supA.Restarts == 0 || supB.Restarts == 0 {
		t.Fatalf("soak produced no restarts (a=%d b=%d) — scenario did not bite",
			supA.Restarts, supB.Restarts)
	}
	if got := ra.CapturesFor("supervisor-restart"); got != supA.Restarts {
		t.Errorf("a: %d supervisor-restart captures, want %d (one per restart)", got, supA.Restarts)
	}
	if got := rb.CapturesFor("supervisor-restart"); got != supB.Restarts {
		t.Errorf("b: %d supervisor-restart captures, want %d (one per restart)", got, supB.Restarts)
	}
	if supB.DefectOutages != 2 {
		t.Errorf("b saw %d defect outages, want 2 (one per LOS window)", supB.DefectOutages)
	}
	if got := rb.CapturesFor("defect-outage"); got != supB.DefectOutages {
		t.Errorf("b: %d defect-outage captures, want %d (one per outage)", got, supB.DefectOutages)
	}
	if ra.WriteErrors() != 0 || rb.WriteErrors() != 0 {
		t.Fatalf("capture write errors: a=%d b=%d", ra.WriteErrors(), rb.WriteErrors())
	}

	// Every capture landed on disk and decodes losslessly.
	files, err := filepath.Glob(filepath.Join(dir, "*.p5fr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(files), int(ra.Captures()+rb.Captures()); got != want {
		t.Errorf("%d capture files on disk, want %d", got, want)
	}
	for _, c := range append(ra.Recent(), rb.Recent()...) {
		rc, err := flight.ReadFile(filepath.Join(dir, c.Filename()))
		if err != nil {
			t.Fatalf("%s: %v", c.Filename(), err)
		}
		if rc.Link != c.Link || rc.Reason != c.Reason || rc.Seq != c.Seq || rc.Now != c.Now {
			t.Errorf("%s: header mismatch after round trip: %+v", c.Filename(), rc)
		}
		if !bytes.Equal(rc.RxWire, c.RxWire) {
			t.Errorf("%s: wire ring not byte-identical after round trip", c.Filename())
		}
		if len(rc.Events) != len(c.Events) || len(rc.Regs) != len(c.Regs) {
			t.Errorf("%s: events/regs truncated: %d/%d events, %d/%d regs",
				c.Filename(), len(rc.Events), len(c.Events), len(rc.Regs), len(c.Regs))
		}
	}

	// Latency observatory: the a→b pipe tracked each of the soak's
	// datagrams once and the LOS windows surfaced as losses.
	if ra.Tracked() != uint64(sent) || delivered == 0 {
		t.Fatalf("tracked=%d sent=%d delivered=%d, want every sent datagram tracked once", ra.Tracked(), sent, delivered)
	}
	if ra.Lost() == 0 {
		t.Error("two line cuts produced no tracked losses")
	}
	if ra.Tracked() != uint64(delivered)+ra.Lost() {
		t.Errorf("tracked %d, delivered %d + lost %d: a frame went uncounted or counted twice", ra.Tracked(), delivered, ra.Lost())
	}

	// SLO evaluator: the outage loss (percent-scale against a 0.1%
	// objective) must have burned budget and tripped the alarm.
	if slo.WorstBurnMilli() <= 0 {
		t.Errorf("worst burn %d milli after two line cuts, want > 0", slo.WorstBurnMilli())
	}
	if !slo.Alarmed() {
		t.Error("SLO never alarmed through the outage windows")
	}

	// The series all land in the shared registry exposition.
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		`flight_frames_tracked_total{link="soak_a"}`,
		`flight_captures_total{link="soak_z"}`,
		`slo_worst_burn_rate{slo="soak_z"}`,
		`slo_error_budget_remaining{slo="soak_z"}`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// Both directions are graded; only a→b carried (and lost) traffic.
	snap := seriesValues(reg)
	alarmA, okA := snap[`slo_alarm{slo="soak_a"}`]
	alarmZ, okZ := snap[`slo_alarm{slo="soak_z"}`]
	if len(w.SLOs) != 2 || !okA || alarmA != 0 || !okZ || alarmZ != 1 {
		t.Errorf("SLO alarms wrong: %d SLOs, soak_a=%v (present=%v) soak_z=%v (present=%v), want 2, 0 and 1",
			len(w.SLOs), alarmA, okA, alarmZ, okZ)
	}
	if v := snap[`flight_frames_tracked_total{link="soak_a"}`]; v != float64(ra.Tracked()) {
		t.Errorf("flight_frames_tracked_total{link=\"soak_a\"} = %v, want %d", v, ra.Tracked())
	}

	t.Logf("sent=%d delivered=%d tracked=%d lost=%d p99=%d ticks; captures a=%d b=%d; worst burn=%d milli",
		sent, delivered, ra.Tracked(), ra.Lost(), ra.P99(),
		ra.Captures(), rb.Captures(), slo.WorstBurnMilli())
}

// TestLinkSteadyStateZeroAllocFlightArmed re-runs the PR-4 zero-alloc
// invariant with the flight recorder armed on both ends: tagging,
// FIFO matching and wire-ring taps must all ride the steady-state path
// without allocating.
func TestLinkSteadyStateZeroAllocFlightArmed(t *testing.T) {
	a, z := newTestPair(t, LinkConfig{}, LinkConfig{})
	new(Watch).ObservePair(Observation{Flight: &flight.Config{}}, "z", a, z)

	payload := make([]byte, 512)
	batch := [][]byte{payload, payload, payload, payload}
	var rx []Datagram
	now := int64(1000)
	step := func() {
		now++
		a.Advance(now)
		z.Advance(now)
		if _, err := a.SendIPv4Batch(batch); err != nil {
			t.Fatalf("SendIPv4Batch: %v", err)
		}
		z.Input(a.Output())
		rx = z.ReceivedInto(rx[:0])
	}
	// Warm every buffer to steady state.
	for i := 0; i < 16; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("armed steady-state link step allocates %.1f times per run, want 0", avg)
	}
	fr := a.Flight()
	if fr.Lost() != 0 {
		t.Fatalf("loopback run recorded %d losses", fr.Lost())
	}
	// Flush retires what is still in flight as lost: nothing may be.
	if fr.Flush(); fr.Tracked() == 0 || fr.Lost() != 0 {
		t.Fatalf("recorder did not track the run: tracked=%d inflight=%d", fr.Tracked(), fr.Lost())
	}
}
