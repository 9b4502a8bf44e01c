package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func testCfg() Config {
	n := int64(0)
	return Config{Clock: func() int64 { n += 1000; return n }}
}

// inFlight is what the series say is in flight: tracked − lost −
// delivered, the identity the error-budget board renders.
func inFlight(r *Recorder) uint64 {
	return r.Tracked() - r.Lost() - r.e2e.Count()
}

func TestPipeMatchesFIFO(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	id1 := r.Depart(10)
	id2 := r.Depart(11)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d,%d", id1, id2)
	}
	id, lat, _ := r.Arrive(12)
	if id != 1 || lat != 2 {
		t.Fatalf("first arrival id=%d lat=%d, want 1/2", id, lat)
	}
	id, lat, _ = r.Arrive(15)
	if id != 2 || lat != 4 {
		t.Fatalf("second arrival id=%d lat=%d, want 2/4", id, lat)
	}
	if id, _, _ := r.Arrive(16); id != 0 {
		t.Fatalf("arrival with empty pipe matched frame %d", id)
	}
	if r.Tracked() != 2 || r.Lost() != 0 {
		t.Fatalf("tracked=%d lost=%d", r.Tracked(), r.Lost())
	}
}

func TestPipeHorizonCountsLoss(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.Depart(0)            // will expire
	r.Depart(horizon + 50) // still live at horizon+100
	r.Expire(horizon + 100)
	if r.Lost() != 1 {
		t.Fatalf("lost = %d, want 1", r.Lost())
	}
	id, lat, _ := r.Arrive(horizon + 100)
	if id != 2 || lat != 50 {
		t.Fatalf("id=%d lat=%d, want 2/50 (matched the live departure)", id, lat)
	}

	// Flush retires everything still in flight.
	r.Depart(horizon + 101)
	r.Depart(horizon + 102)
	r.Flush()
	if r.Lost() != 3 || inFlight(r) != 0 {
		t.Fatalf("after flush lost=%d inflight=%d", r.Lost(), inFlight(r))
	}
}

func TestPipeOverflowRetiresOldest(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	for i := 0; i < pipeDepth+2; i++ {
		r.Depart(int64(i))
	}
	if r.Lost() != 2 || inFlight(r) != pipeDepth {
		t.Fatalf("lost=%d inflight=%d, want 2/%d", r.Lost(), inFlight(r), pipeDepth)
	}
	// Oldest live departure is #3 (at=2).
	id, lat, _ := r.Arrive(10)
	if id != 3 || lat != 8 {
		t.Fatalf("id=%d lat=%d, want 3/8", id, lat)
	}
}

// slowEvents returns the slow-frame events in r's black box.
func slowEvents(r *Recorder) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range r.events.Events() {
		if e.Name == "slow-frame" {
			out = append(out, e)
		}
	}
	return out
}

// TestExemplarsResolve: a slow frame (≥ slowTicks) is reported by
// Arrive and leaves a black-box event carrying its ID and latency; a
// fast one leaves nothing.
func TestExemplarsResolve(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.Depart(0)
	r.Depart(0)
	if _, _, slow := r.Arrive(1); slow {
		t.Fatal("a 1-tick arrival reported slow")
	}
	if id, lat, slow := r.Arrive(100); id != 2 || lat != 100 || !slow {
		t.Fatalf("slow arrival id=%d lat=%d slow=%v, want 2/100/true", id, lat, slow)
	}
	evs := slowEvents(r)
	if len(evs) != 1 || evs[0].V1 != 2 || evs[0].V2 != 100 || evs[0].At != 100 {
		t.Fatalf("slow-frame events %v, want one for frame 2 at 100", evs)
	}
}

// TestSlowRunReportsItsFirstFrame: a held line releases its backlog as
// a run of slow arrivals; only the run's first is reported and
// recorded, and a fast arrival ends the run.
func TestSlowRunReportsItsFirstFrame(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	for i := 0; i < 2*eventRing; i++ {
		r.Depart(0)
	}
	r.Depart(200)
	reported := 0
	for i := 0; i < 2*eventRing; i++ {
		if _, _, slow := r.Arrive(64); slow {
			reported++
		}
	}
	if _, _, slow := r.Arrive(201); slow {
		t.Fatal("a 1-tick arrival reported slow")
	}
	r.Depart(300)
	if _, _, slow := r.Arrive(400); !slow {
		t.Fatal("the first slow arrival after a fast one was not reported")
	}
	evs := slowEvents(r)
	if reported != 1 || len(evs) != 2 || evs[0].V1 != 1 || evs[1].V1 != 2*eventRing+2 {
		t.Fatalf("%d of the run's arrivals reported, %d slow-frame events recorded; want 1, and 2: frames 1 and %d",
			reported, len(evs), 2*eventRing+2)
	}
}

func TestByteRingInvariant(t *testing.T) {
	var r byteRing
	r.buf = make([]byte, 8)
	r.write([]byte("abc"))
	base, data := r.snapshot()
	if base != 0 || string(data) != "abc" {
		t.Fatalf("base=%d data=%q", base, data)
	}
	r.write([]byte("defghij")) // 10 total, wraps
	base, data = r.snapshot()
	if base != 2 || string(data) != "cdefghij" {
		t.Fatalf("after wrap base=%d data=%q", base, data)
	}
	// Oversized write keeps only the tail and stays aligned.
	r.write(bytes.Repeat([]byte("x"), 20))
	r.write([]byte("YZ"))
	base, data = r.snapshot()
	if base != 24 || string(data) != "xxxxxxYZ" {
		t.Fatalf("after oversize base=%d data=%q", base, data)
	}
}

func TestCaptureRoundTripByteIdentical(t *testing.T) {
	c := &Capture{
		Link:   "b",
		Reason: "supervisor-restart",
		Seq:    3,
		Now:    4242,
		WallNs: 1234567890,
		RxBase: 9000,
		RxWire: []byte{0x7E, 0xFF, 0x03, 0x00, 0x21, 0x45, 0x7D, 0x5E, 0x7E},
		Events: []telemetry.Event{
			{Seq: 1, At: 10, Scope: "b", Name: "restart", Detail: "backoff", V1: 2, V2: 8},
			{Seq: 2, At: 11, Scope: "b", Name: "capture", Detail: "supervisor-restart"},
		},
		Regs: []RegSample{{Name: "rx_frames", Value: 77}, {Name: "alarm", Value: 0x30}},
	}
	data, err := c.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RxWire, c.RxWire) {
		t.Fatalf("wire stream not byte-identical:\n got %x\nwant %x", got.RxWire, c.RxWire)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}

	// Re-encoding the decoded capture is byte-identical too.
	data2, err := got.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encode differs from original encoding")
	}
}

func TestCaptureDecodeRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte("not a capture")); err == nil {
		t.Fatal("bad magic accepted")
	}
	c := &Capture{Link: "a", Reason: "oam"}
	data, _ := c.encode()
	if _, err := decode(data[:len(data)-1]); err == nil {
		t.Fatal("truncated capture accepted")
	}
	// Unknown sections are skipped, not fatal.
	var w sectionWriter
	w.buf = append(w.buf, data...)
	w.section(0x7FFF, []byte("future extension"))
	got, err := decode(w.buf)
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	if got.Link != "a" || got.Reason != "oam" {
		t.Fatalf("meta lost around unknown section: %+v", got)
	}
}

// hugeSection is a capture header whose first section claims 2³¹ (or
// more) octets: a length that an int conversion makes negative on a
// 32-bit GOARCH.
func hugeSection(n uint32) []byte {
	var w sectionWriter
	w.buf = append(w.buf, captureMagic...)
	w.u8(captureVersion)
	w.pad(3)
	w.u16(secWire)
	w.u16(0)
	w.u32(n)
	w.buf = append(w.buf, "sixteen octets.."...)
	return w.buf
}

// TestCaptureDecodeHugeSectionLength: a section or register count at or
// above 2³¹ is truncation, not a negative length that slips past the
// bounds check (run under GOARCH=386 by scripts/verify.sh).
func TestCaptureDecodeHugeSectionLength(t *testing.T) {
	for _, n := range []uint32{1 << 31, 1<<31 + 1, 1<<32 - 1} {
		if _, err := decode(hugeSection(n)); err == nil {
			t.Errorf("section length %#x accepted", n)
		}
	}
	c := &Capture{Link: "a", Reason: "oam", Regs: []RegSample{{Name: "x", Value: 1}}}
	data, _ := c.encode()
	count := bytes.Index(data, []byte{1, 0, 0, 0, 1, 0, 'x'}) // regs: count u32, str16 "x"
	if count < 0 {
		t.Fatal("regs section not found")
	}
	data[count+3] = 0x80 // 2³¹ + 1 registers
	if _, err := decode(data); err == nil {
		t.Error("register count 2³¹+1 accepted")
	}
}

// FuzzCaptureDecode: p5trace reads capture files it did not write, so
// any input is an error or a capture, never a panic, and what decode
// allocates is bounded by the input's size. The input also rides a
// capture's every field through encode → decode unchanged (event
// strings as valid UTF-8: the events section is JSON). Seeds: a
// recorder's capture, the same capture with a dir-1 wire section (which
// decodes with that section skipped) and the 2³¹ section header.
func FuzzCaptureDecode(f *testing.F) {
	r := NewRecorder(nil, "port0_a", testCfg())
	r.RegDump = func(dst []RegSample) []RegSample {
		return append(dst, RegSample{Name: "alarm", Value: 0x30})
	}
	r.TapRx([]byte{0x7E, 0xFF, 0x03, 0xC0, 0x21, 0x01, 0x01, 0x00, 0x04, 0x7D, 0x5E, 0x7E})
	r.Event(7, "restart", "backoff", 2, 8)
	r.Trigger("transport-los")
	r.AdoptIncident(0xFEED, "transport-los", 40, 1234)
	recorded, err := r.Recent()[0].encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add(txWire(f, recorded))
	f.Add(hugeSection(1 << 31))
	f.Add(hugeSection(1<<32 - 1))
	f.Add([]byte("P5FR\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(in)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 256*uint64(len(in))+64<<10 {
			t.Fatalf("Decode of %d octets allocated %d bytes", len(in), n)
		}

		s, v := string(in), uint64(len(in))
		u := strings.ToValidUTF8(s, "?")
		c := &Capture{
			Link: s, Reason: s, Seq: v, Now: -int64(v), WallNs: int64(v) << 20,
			RxBase: v, RxWire: in,
			Events:   []telemetry.Event{{Seq: v, At: 1, Scope: u, Name: u, Detail: u, V1: -1, V2: int64(v)}},
			Regs:     []RegSample{{Name: s, Value: v}, {Name: "", Value: ^v}},
			Incident: v | 1, FromPeer: v%2 == 0, PeerNow: 3, PeerWallNs: -4, ClockOffsetNS: int64(v), TickOffset: -5,
		}
		if len(in) == 0 { // no octets: nil wire
			c.RxWire = nil
		}
		data, err := c.encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := decode(data)
		if err != nil {
			t.Fatalf("Decode of an encoded capture: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
		}
	})
}

// txWire appends to an encoded capture a wire section whose dir is not
// the receive direction, as a transmit tap would have written it, and
// checks that decode skips it: the capture reads back as encoded.
func txWire(tb testing.TB, capture []byte) []byte {
	tb.Helper()
	var w, tx sectionWriter
	tx.u8(1)
	tx.pad(7)
	tx.u64(100)
	tx.buf = append(tx.buf, 0x7E, 0x01, 0x02)
	w.buf = append(w.buf, capture...)
	w.section(secWire, tx.buf)
	want, err := decode(capture)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := decode(w.buf)
	if err != nil {
		tb.Fatalf("dir-1 wire section not skipped: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("dir-1 wire section changed the capture:\n got %+v\nwant %+v", got, want)
	}
	return w.buf
}

func TestCaptureFileAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.Dir = dir
	r := NewRecorder(nil, "w0", cfg)
	r.TapRx([]byte{0x7E, 0x11, 0x22, 0x7E})
	r.SetNow(99)
	c := r.Trigger("fcs-burst")
	if n := r.WriteErrors(); n != 0 {
		t.Fatalf("%d capture write errors", n)
	}
	path := filepath.Join(dir, c.Filename())
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RxWire, []byte{0x7E, 0x11, 0x22, 0x7E}) || got.Now != 99 || got.Reason != "fcs-burst" {
		t.Fatalf("file capture = %+v", got)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".p5fr-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestCaptureWriteErrorIsCounted: a capture that cannot reach its
// directory stays in memory, and the failure is a counted series, a
// board field and a black-box event rather than a swallowed error.
func TestCaptureWriteErrorIsCounted(t *testing.T) {
	// A regular file where the directory should be: unwritable for any
	// user, root included.
	notDir := filepath.Join(t.TempDir(), "captures")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := testCfg()
	cfg.Dir = notDir
	r := NewRecorder(reg, "w", cfg)
	c := r.Trigger("oam")
	if c.Path != "" {
		t.Fatalf("capture claims path %q under an unwritable directory", c.Path)
	}
	if len(r.Recent()) != 1 {
		t.Fatal("capture lost from memory when its file write failed")
	}
	if got := r.WriteErrors(); got != 1 {
		t.Fatalf("WriteErrors = %d, want 1", got)
	}
	if v := seriesValues(reg)[`flight_capture_write_errors_total{link="w"}`]; v != 1 {
		t.Errorf("flight_capture_write_errors_total = %v, want 1", v)
	}
	found := false
	for _, e := range r.events.Events() {
		found = found || e.Name == "capture-write-error" && e.V1 == int64(c.Seq)
	}
	if !found {
		t.Error("no capture-write-error event in the black box")
	}
}

func TestTriggerBookkeeping(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.RegDump = func(dst []RegSample) []RegSample {
		return append(dst, RegSample{Name: "x", Value: 1})
	}
	seen := 0
	r.OnCapture = func(c *Capture) { seen++ }
	r.Trigger("oam")
	r.Trigger("oam")
	r.Trigger("aps-switch")
	if r.Captures() != 3 || r.CapturesFor("oam") != 2 || r.CapturesFor("aps-switch") != 1 {
		t.Fatalf("counts: total=%d oam=%d aps=%d", r.Captures(), r.CapturesFor("oam"), r.CapturesFor("aps-switch"))
	}
	if seen != 3 {
		t.Fatalf("OnCapture fired %d times", seen)
	}
	rec := r.Recent()
	if len(rec) != 3 || len(rec[2].Regs) != 1 || rec[2].Regs[0].Name != "x" {
		t.Fatalf("RegDump not applied: %+v", rec)
	}
	// The in-memory list is bounded, oldest out.
	for i := 0; i < recentCaptures; i++ {
		r.Trigger("oam")
	}
	rec = r.Recent()
	if len(rec) != recentCaptures || rec[0].Seq != 4 || rec[len(rec)-1].Seq != 3+recentCaptures {
		t.Fatalf("recent ring not bounded oldest-out: %d entries from seq %d", len(rec), rec[0].Seq)
	}
}

// TestTriggerProfilerHook: the Config.Profiler hook observes every
// capture after OnCapture and after the capture file is written, so a
// runtime profile snapshot can land next to the .p5fr evidence.
func TestTriggerProfilerHook(t *testing.T) {
	cfg := testCfg()
	cfg.Dir = t.TempDir()
	order := []string{}
	cfg.Profiler = func(c *Capture) {
		if c.Reason != "aps-switch" {
			t.Errorf("profiler saw reason %q", c.Reason)
		}
		order = append(order, "profiler")
	}
	r := NewRecorder(nil, "a", cfg)
	r.OnCapture = func(c *Capture) { order = append(order, "capture") }
	c := r.Trigger("aps-switch")
	if len(order) != 2 || order[0] != "capture" || order[1] != "profiler" {
		t.Fatalf("hook order = %v, want [capture profiler]", order)
	}
	// The .p5fr file exists by the time the profiler runs, so tagged
	// snapshots written beside it always pair up.
	if c.Path == "" {
		t.Error("capture file not on disk before the profiler hook ran")
	}
}

func TestBurstDetectorFiresOncePerBurst(t *testing.T) {
	b := BurstDetector{Window: 10, Threshold: 3}
	if b.Note(0) || b.Note(1) {
		t.Fatal("fired below threshold")
	}
	if !b.Note(2) {
		t.Fatal("did not fire at threshold")
	}
	if b.Note(3) || b.Note(4) {
		t.Fatal("re-fired inside the same burst")
	}
	// Quiet period re-arms.
	if b.Note(100) || b.Note(101) {
		t.Fatal("fired below threshold after re-arm")
	}
	if !b.Note(102) {
		t.Fatal("did not fire on second burst")
	}
}

func TestSLOBurnRates(t *testing.T) {
	var frames, errors uint64
	var p99, fo int64
	alarms := []string{}
	reg := telemetry.NewRegistry()
	gauge := func(series string) float64 {
		v, ok := seriesValues(reg)[series]
		if !ok {
			t.Fatalf("%s not registered", series)
		}
		return v
	}
	s := NewSLO(reg, "b", SLOConfig{FrameLossTarget: 0.01, P99BudgetTicks: 8},
		Sources{
			Frames:   func() uint64 { return frames },
			Errors:   func() uint64 { return errors },
			P99:      func() int64 { return p99 },
			Failover: func() int64 { return fo },
		})
	s.OnAlarm = func(obj string) { alarms = append(alarms, obj) }

	// Clean window: 1000 frames, no loss.
	s.Sample(0)
	frames = 1000
	s.Sample(sloWindow)
	if s.WorstBurnMilli() != 0 || s.Alarmed() {
		t.Fatalf("clean window burn=%d alarmed=%v", s.WorstBurnMilli(), s.Alarmed())
	}

	// 5% loss against a 1% target over the window → loss burn 5, alarm
	// fires once.
	frames, errors = 2000, 50
	s.Sample(2 * sloWindow)
	if got := s.WorstBurnMilli(); got < 4000 {
		t.Fatalf("loss burn = %dm, want ≥ 4000m", got)
	}
	if !s.Alarmed() || len(alarms) != 1 || alarms[0] != "frame_loss" {
		t.Fatalf("alarm state: %v %v", s.Alarmed(), alarms)
	}
	if alarm, loss := gauge(`slo_alarm{slo="b"}`), gauge(`slo_burn_rate{slo="b",objective="frame_loss"}`); alarm != 1 || loss < 4 {
		t.Fatalf("slo_alarm = %v, frame_loss burn = %v; want 1 and ≥ 4", alarm, loss)
	}
	if budget := gauge(`slo_error_budget_remaining{slo="b"}`); budget != 0 {
		t.Fatalf("budget remaining = %v, want 0 (2.5x overspent)", budget)
	}

	// Loss stops; after the window rolls past the errored span the
	// burn decays and the alarm clears with hysteresis.
	for at := int64(2*sloWindow + 100); at <= 5*sloWindow; at += 100 {
		frames += 100
		s.Sample(at)
	}
	if s.WorstBurnMilli() >= 4000 || s.Alarmed() {
		t.Fatalf("burn did not decay: %dm alarmed=%v", s.WorstBurnMilli(), s.Alarmed())
	}
	if len(alarms) != 1 {
		t.Fatalf("alarm edge fired %d times", len(alarms))
	}

	// Latency and failover objectives burn independently.
	p99, fo = 16, 2*failoverBudgetTicks
	s.Sample(5*sloWindow + 100)
	p99Burn, failBurn := gauge(`slo_burn_rate{slo="b",objective="p99_latency"}`), gauge(`slo_burn_rate{slo="b",objective="failover"}`)
	if p99Burn != 2 || failBurn != 2 {
		t.Fatalf("p99 burn=%v failover burn=%v, want 2/2", p99Burn, failBurn)
	}
}

// TestExemplarOverflowBucketLE: an arrival past the last finite bound
// (inside the horizon) is slow and recorded with its latency, and the
// histogram's p99 clamps to the highest finite bound.
func TestExemplarOverflowBucketLE(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.Depart(0)
	if _, lat, slow := r.Arrive(horizon); lat != horizon || !slow {
		t.Fatalf("overflow arrival lat=%d slow=%v, want %d/true", lat, slow, horizon)
	}
	if evs := slowEvents(r); len(evs) != 1 || evs[0].V2 != horizon {
		t.Fatalf("slow-frame events %v, want one at latency %d", evs, horizon)
	}
	if got := r.P99(); got != e2eBounds[len(e2eBounds)-1] {
		t.Fatalf("p99 = %d, want clamp to %d", got, e2eBounds[len(e2eBounds)-1])
	}
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
