package flight

import (
	"bytes"
	"math"
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

func TestPipeMatchesFIFO(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	id1 := r.Depart(10)
	id2 := r.Depart(11)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d,%d", id1, id2)
	}
	lat, ok := r.Arrive(12)
	if !ok || lat != 2 {
		t.Fatalf("first arrival lat=%d ok=%v, want 2", lat, ok)
	}
	lat, ok = r.Arrive(15)
	if !ok || lat != 4 {
		t.Fatalf("second arrival lat=%d ok=%v, want 4", lat, ok)
	}
	if _, ok := r.Arrive(16); ok {
		t.Fatal("arrival with empty pipe matched")
	}
	if r.Tracked() != 2 || r.Lost() != 0 {
		t.Fatalf("tracked=%d lost=%d", r.Tracked(), r.Lost())
	}
}

func TestPipeHorizonCountsLoss(t *testing.T) {
	cfg := testCfg()
	cfg.Horizon = 100
	r := NewRecorder(nil, "a", cfg)
	r.Depart(0)   // will expire
	r.Depart(950) // still live at 1000
	r.Expire(1000)
	if r.Lost() != 1 {
		t.Fatalf("lost = %d, want 1", r.Lost())
	}
	lat, ok := r.Arrive(1000)
	if !ok || lat != 50 {
		t.Fatalf("lat=%d ok=%v, want 50 (matched the live departure)", lat, ok)
	}

	// Flush retires everything still in flight.
	r.Depart(1001)
	r.Depart(1002)
	r.Flush()
	if r.Lost() != 3 || r.InFlight() != 0 {
		t.Fatalf("after flush lost=%d inflight=%d", r.Lost(), r.InFlight())
	}
}

func TestPipeOverflowRetiresOldest(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	for i := 0; i < pipeDepth+2; i++ {
		r.Depart(int64(i))
	}
	if r.Lost() != 2 || r.InFlight() != pipeDepth {
		t.Fatalf("lost=%d inflight=%d, want 2/%d", r.Lost(), r.InFlight(), pipeDepth)
	}
	// Oldest live departure is #3 (at=2).
	lat, ok := r.Arrive(10)
	if !ok || lat != 8 {
		t.Fatalf("lat=%d ok=%v, want 8", lat, ok)
	}
}

// exemplarFor returns the exemplar of the bucket a latency of v ticks
// falls in, if one has been recorded.
func exemplarFor(r *Recorder, v int64) (Exemplar, bool) {
	le := int64(math.MaxInt64)
	for _, b := range E2EBounds {
		if v <= b {
			le = b
			break
		}
	}
	for _, e := range r.Exemplars() {
		if e.LE == le {
			return e, true
		}
	}
	return Exemplar{}, false
}

func TestExemplarsResolve(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.Depart(0)
	r.Depart(0)
	r.Arrive(1)   // fast frame
	r.Arrive(100) // slow frame, bucket le=128
	ex, ok := exemplarFor(r, 100)
	if !ok {
		t.Fatal("no exemplar for the slow bucket")
	}
	if ex.ID != 2 || ex.Value != 100 || ex.At != 100 || ex.LE != 128 {
		t.Fatalf("exemplar = %+v", ex)
	}
	all := r.Exemplars()
	if len(all) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(all))
	}
	// A slow frame (≥ slowTicks) leaves a black-box event carrying its ID.
	found := false
	for _, e := range r.events.Events() {
		if e.Name == "slow-frame" && e.V1 == 2 && e.V2 == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-frame event for frame 2 in %v", r.events.Events())
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
		TxBase: 100,
		TxWire: []byte{0x7E, 0x01, 0x02},
		Events: []telemetry.Event{
			{Seq: 1, At: 10, Scope: "b", Name: "restart", Detail: "backoff", V1: 2, V2: 8},
			{Seq: 2, At: 11, Scope: "b", Name: "capture", Detail: "supervisor-restart"},
		},
		Regs: []RegSample{{Name: "rx_frames", Value: 77}, {Name: "alarm", Value: 0x30}},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RxWire, c.RxWire) || !bytes.Equal(got.TxWire, c.TxWire) {
		t.Fatalf("wire stream not byte-identical:\n got %x / %x\nwant %x / %x",
			got.RxWire, got.TxWire, c.RxWire, c.TxWire)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}

	// Re-encoding the decoded capture is byte-identical too.
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encode differs from original encoding")
	}
}

func TestCaptureDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a capture")); err == nil {
		t.Fatal("bad magic accepted")
	}
	c := &Capture{Link: "a", Reason: "oam"}
	data, _ := c.Encode()
	if _, err := Decode(data[:len(data)-1]); err == nil {
		t.Fatal("truncated capture accepted")
	}
	// Unknown sections are skipped, not fatal.
	var w sectionWriter
	w.buf = append(w.buf, data...)
	w.section(0x7FFF, []byte("future extension"))
	got, err := Decode(w.buf)
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
		if _, err := Decode(hugeSection(n)); err == nil {
			t.Errorf("section length %#x accepted", n)
		}
	}
	c := &Capture{Link: "a", Reason: "oam", Regs: []RegSample{{Name: "x", Value: 1}}}
	data, _ := c.Encode()
	count := bytes.Index(data, []byte{1, 0, 0, 0, 1, 0, 'x'}) // regs: count u32, str16 "x"
	if count < 0 {
		t.Fatal("regs section not found")
	}
	data[count+3] = 0x80 // 2³¹ + 1 registers
	if _, err := Decode(data); err == nil {
		t.Error("register count 2³¹+1 accepted")
	}
}

// FuzzCaptureDecode: p5trace reads capture files it did not write, so
// any input is an error or a capture, never a panic, and what Decode
// allocates is bounded by the input's size. The input also rides a
// capture's every field through Encode → Decode unchanged (event
// strings as valid UTF-8: the events section is JSON). Seeds: a
// recorder's capture and the 2³¹ section header.
func FuzzCaptureDecode(f *testing.F) {
	r := NewRecorder(nil, "port0_a", testCfg())
	r.RegDump = func(dst []RegSample) []RegSample {
		return append(dst, RegSample{Name: "alarm", Value: 0x30})
	}
	r.TapRx([]byte{0x7E, 0xFF, 0x03, 0xC0, 0x21, 0x01, 0x01, 0x00, 0x04, 0x7D, 0x5E, 0x7E})
	r.Event(7, "restart", "backoff", 2, 8)
	r.Trigger("transport-los")
	r.AdoptIncident(0xFEED, "transport-los", 40, 1234)
	recorded, err := r.Recent()[0].Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add(hugeSection(1 << 31))
	f.Add(hugeSection(1<<32 - 1))
	f.Add([]byte("P5FR\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Decode(in)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 256*uint64(len(in))+64<<10 {
			t.Fatalf("Decode of %d octets allocated %d bytes", len(in), n)
		}

		s, v := string(in), uint64(len(in))
		u := strings.ToValidUTF8(s, "?")
		c := &Capture{
			Link: s, Reason: s, Seq: v, Now: -int64(v), WallNs: int64(v) << 20,
			RxBase: v, RxWire: in, TxBase: ^v, TxWire: in,
			Events:   []telemetry.Event{{Seq: v, At: 1, Scope: u, Name: u, Detail: u, V1: -1, V2: int64(v)}},
			Regs:     []RegSample{{Name: s, Value: v}, {Name: "", Value: ^v}},
			Incident: v | 1, FromPeer: v%2 == 0, PeerNow: 3, PeerWallNs: -4, ClockOffsetNS: int64(v), TickOffset: -5,
		}
		if len(in) == 0 { // no octets: nil wire, and no tx section to carry TxBase
			c.RxWire, c.TxBase, c.TxWire = nil, 0, nil
		}
		data, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode of an encoded capture: %v", err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
		}
	})
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
	if v, _ := reg.Snapshot("t").Get(`flight_capture_write_errors_total{link="w"}`); v != 1 {
		t.Errorf("flight_capture_write_errors_total = %v, want 1", v)
	}
	b := NewBoard()
	b.Attach(r)
	if got := b.Snapshot().Links[0].CaptureWriteErrors; got != 1 {
		t.Errorf("board capture_write_errors = %d, want 1", got)
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
	s := NewSLO(nil, "b", SLOConfig{Window: 80, FrameLossTarget: 0.01, P99BudgetTicks: 8, FailoverBudgetTicks: 400, AlarmBurn: 4},
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
	s.Sample(100)
	if s.WorstBurnMilli() != 0 || s.Alarmed() {
		t.Fatalf("clean window burn=%d alarmed=%v", s.WorstBurnMilli(), s.Alarmed())
	}

	// 5% loss against a 1% target → loss burn 5, alarm fires once.
	frames, errors = 2000, 50
	s.Sample(200)
	if got := s.WorstBurnMilli(); got < 4000 {
		t.Fatalf("loss burn = %dm, want ≥ 4000m", got)
	}
	if !s.Alarmed() || len(alarms) != 1 || alarms[0] != "frame_loss" {
		t.Fatalf("alarm state: %v %v", s.Alarmed(), alarms)
	}
	doc := s.snapshot()
	if !doc.Alarm || doc.LossBurn < 4 {
		t.Fatalf("snapshot = %+v", doc)
	}
	if doc.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 (2.5x overspent)", doc.BudgetRemaining)
	}

	// Loss stops; after the window rolls past the errored span the
	// burn decays and the alarm clears with hysteresis.
	for at := int64(300); at <= 900; at += 10 {
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
	p99, fo = 16, 800
	s.Sample(1000)
	doc = s.snapshot()
	if doc.P99Burn != 2 || doc.FailoverBurn != 2 {
		t.Fatalf("p99 burn=%v failover burn=%v, want 2/2", doc.P99Burn, doc.FailoverBurn)
	}
}

func TestBoardSnapshotAndJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(reg, "port0", testCfg())
	r.Depart(0)
	r.Arrive(3)
	s := NewSLO(reg, "port0", SLOConfig{}, Sources{Frames: r.Tracked, Errors: r.Lost, P99: r.P99})
	s.Sample(10)
	b := NewBoard()
	b.Attach(r)
	b.AttachSLO(s)

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadBoard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.SLOs) != 1 || len(doc.Links) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Links[0].Link != "port0" || doc.Links[0].Tracked != 1 || len(doc.Links[0].Exemplars) != 1 {
		t.Fatalf("link entry = %+v", doc.Links[0])
	}
	if doc.SLOs[0].Name != "port0" || doc.SLOs[0].WindowTicks != 2048 {
		t.Fatalf("slo entry = %+v", doc.SLOs[0])
	}

	// The registered gauges flatten into a scrape.
	snap := reg.Snapshot("t")
	if _, ok := snap.Get(`slo_worst_burn_rate{slo="port0"}`); !ok {
		t.Fatal("slo_worst_burn_rate not registered")
	}
	if v, ok := snap.Get(`flight_frames_tracked_total{link="port0"}`); !ok || v != 1 {
		t.Fatalf("flight_frames_tracked_total = %v %v", v, ok)
	}
}

func TestExemplarOverflowBucketLE(t *testing.T) {
	cfg := testCfg()
	cfg.Horizon = 1 << 40 // keep the matcher from declaring it lost first
	r := NewRecorder(nil, "a", cfg)
	r.Depart(0)
	r.Arrive(100000) // beyond the last finite bound
	ex, ok := exemplarFor(r, 100000)
	if !ok || ex.LE != math.MaxInt64 {
		t.Fatalf("overflow exemplar = %+v ok=%v", ex, ok)
	}
	// And the histogram's p99 clamps to the highest finite bound.
	if got := r.P99(); got != E2EBounds[len(E2EBounds)-1] {
		t.Fatalf("p99 = %d, want clamp to %d", got, E2EBounds[len(E2EBounds)-1])
	}
}
