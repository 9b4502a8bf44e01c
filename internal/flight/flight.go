// Package flight is the always-on flight recorder. Where
// internal/telemetry answers "how much, how often" and internal/prof
// answers "where did the time go", flight answers "what was on the
// wire, and how late did it arrive":
//
//   - a per-frame latency pipe: datagrams are tagged when they depart a
//     link's transmit path and matched FIFO at the far end, feeding an
//     end-to-end latency histogram (virtual ticks). The first arrival of
//     each run of slow arrivals is the pipe's exemplar: a slow-frame
//     event carrying the concrete frame ID and latency, so a p99 spike
//     resolves to a real frame;
//   - a black-box recorder: bounded rings of recent raw HDLC wire
//     bytes, structured events and register snapshots, dumped
//     atomically to a self-describing capture file (capture.go) on
//     defect escalation, APS switch, FCS-error burst, supervisor
//     restart or an explicit OAM register write;
//   - an SLO evaluator (slo.go) turning the recorded series into
//     rolling error budgets and burn-rate gauges.
//
// Steady-state cost is deliberately asymmetric: the transmit path pays
// one ring store and one atomic add per frame (no wall-clock read, no
// wire copy), keeping the PR-4 zero-alloc encode benchmark within its
// overhead gate; the receive path adds the wire-ring memcpy and the
// FIFO match. Neither path reads a wall clock, takes a lock or
// allocates — stage timing is internal/prof's job.
//
// Ownership follows the Link rules (DESIGN.md §8): Depart/Arrive/TapRx
// and Trigger must be called from the goroutine that owns the link (or
// while the simulation is quiesced); the histograms and counters behind
// them are atomic, so HTTP scrapes of /metrics are safe at any time.
package flight

import (
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// e2eBounds are the end-to-end latency histogram bounds, in virtual
// ticks (1 tick = one 125 µs frame slot in the SONET-paced sims).
var e2eBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// The recorder's fixed sizes.
const (
	// wireBytes is the raw receive wire ring capacity in octets.
	wireBytes = 8192
	// eventRing is the black-box event ring capacity.
	eventRing = 256
	// pipeDepth bounds the in-flight frame matcher; when it overflows
	// the oldest departure is counted lost.
	pipeDepth = 1024
	// slowTicks is the end-to-end latency at or above which an arrival
	// is slow; the first of a run emits a slow-frame event into the
	// black box (and the receiving link one onto its tracer: the /trace
	// exemplars).
	slowTicks = 32
	// recentCaptures bounds the in-memory capture list.
	recentCaptures = 8
	// horizon is the age in ticks after which an unmatched departure is
	// declared lost.
	horizon = 1024
)

// Config parameterises a Recorder. The zero value is usable.
type Config struct {
	// Dir, when non-empty, is the directory capture files are written
	// to (one file per trigger). Empty keeps captures in memory only.
	Dir string
	// Clock supplies the wall-clock nanoseconds stamped on captures
	// (default time.Now().UnixNano). Injectable for tests.
	Clock func() int64
	// Profiler, when set, observes every capture after it is recorded
	// (and after any capture file is written), so a runtime profile
	// snapshot can land next to the .p5fr evidence — p5sim -prof wires
	// this to prof.WriteSnapshot. Called on the triggering goroutine;
	// runs after OnCapture.
	Profiler func(*Capture)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

type departure struct {
	id uint64
	at int64
}

// byteRing is a bounded ring over a raw octet stream. Invariant:
// buf[i%len(buf)] holds stream byte i for i in [n-len(buf), n).
type byteRing struct {
	buf []byte
	n   uint64 // total stream bytes ever written
}

func (r *byteRing) write(p []byte) {
	size := len(r.buf)
	if size == 0 || len(p) == 0 {
		r.n += uint64(len(p))
		return
	}
	if len(p) > size {
		r.n += uint64(len(p) - size)
		p = p[len(p)-size:]
	}
	off := int(r.n % uint64(size))
	k := copy(r.buf[off:], p)
	if k < len(p) {
		copy(r.buf, p[k:])
	}
	r.n += uint64(len(p))
}

// snapshot returns the retained octets oldest-first plus the stream
// offset of the first returned byte.
func (r *byteRing) snapshot() (base uint64, data []byte) {
	size := uint64(len(r.buf))
	if size == 0 || r.n == 0 {
		return r.n, nil
	}
	if r.n <= size {
		return 0, append([]byte(nil), r.buf[:r.n]...)
	}
	start := r.n % size
	data = make([]byte, 0, size)
	data = append(data, r.buf[start:]...)
	data = append(data, r.buf[:start]...)
	return r.n - size, data
}

// Recorder is one link's flight recorder: latency pipe, wire/event
// black box and capture trigger. Obtain one with NewRecorder and arm
// it on a Link.
type Recorder struct {
	name string
	cfg  Config

	// FIFO departure matcher. Single-writer: owned by the link's
	// goroutine (Depart on TX, Arrive driven by the peer's RX — the
	// same goroutine in every deployment here).
	ring   [pipeDepth]departure
	head   uint64 // oldest live entry
	tail   uint64 // next free slot
	nextID uint64
	// slowRun is set while consecutive arrivals are slow: only the
	// first of a run is reported and recorded (see Arrive).
	slowRun bool

	e2e       *telemetry.Histogram
	tracked   *telemetry.Counter
	lost      *telemetry.Counter
	capsC     *telemetry.Counter
	writeErrs *telemetry.Counter
	wireRx    *telemetry.Counter

	rx     byteRing // received raw wire octets; transmit is not tapped
	events *telemetry.Tracer

	now int64 // latest virtual time seen (SetNow)

	capMu    sync.Mutex
	recent   []*Capture
	capSeq   uint64
	byReason map[string]uint64

	// Correlate, when set, stamps correlation metadata onto every
	// capture — incident ID, clock/tick offset estimates, peer trigger
	// context — before the capture file is written, so the .p5fr a
	// distributed trigger leaves behind carries everything p5trace
	// -join needs. The TransportPort wires this to its freeze channel.
	// Set before arming; called on the triggering goroutine.
	Correlate func(*Capture)
	// OnCapture, when set, observes every capture after it is recorded
	// (the OAM block raises its interrupt here). Set before arming.
	OnCapture func(*Capture)
	// RegDump, when set, appends register snapshots to each capture.
	// Set before arming; called on the triggering goroutine.
	RegDump func([]RegSample) []RegSample
}

// NewRecorder builds a recorder named for its link and registers its
// series (flight_* family, labelled link=name) in reg. reg may be nil
// for an unexposed recorder (tests, tools).
func NewRecorder(reg *telemetry.Registry, name string, cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	lk := telemetry.L("link", name)
	return &Recorder{
		name:     name,
		cfg:      cfg,
		rx:       byteRing{buf: make([]byte, wireBytes)},
		events:   telemetry.NewTracer(eventRing),
		byReason: make(map[string]uint64),
		e2e: reg.Histogram("flight_e2e_latency_ticks",
			"end-to-end frame latency, departure to delivery, virtual ticks", e2eBounds, lk),
		tracked: reg.Counter("flight_frames_tracked_total", "frames tagged at departure", lk),
		lost:    reg.Counter("flight_frames_lost_total", "tagged frames never delivered (horizon or overflow)", lk),
		capsC:   reg.Counter("flight_captures_total", "black-box captures triggered", lk),
		writeErrs: reg.Counter("flight_capture_write_errors_total",
			"capture files that could not be written to the capture directory", lk),
		wireRx: reg.Counter("flight_wire_octets_total", "raw wire octets through the black box", lk, telemetry.L("dir", "rx")),
	}
}

// Name returns the link name the recorder was built for.
func (r *Recorder) Name() string { return r.name }

// SetNow records the link's virtual time; captures and events are
// stamped with the latest value.
func (r *Recorder) SetNow(now int64) { r.now = now }

// Depart tags one transmitted frame at virtual time now and returns
// its frame ID. When the pipe is full the oldest in-flight entry is
// retired as lost.
func (r *Recorder) Depart(now int64) uint64 {
	if r.tail-r.head == pipeDepth {
		r.head++
		r.lost.Inc()
	}
	r.nextID++
	r.ring[r.tail%pipeDepth] = departure{id: r.nextID, at: now}
	r.tail++
	r.tracked.Add(1)
	return r.nextID
}

// Arrive matches one delivered frame FIFO against the oldest live
// departure and observes the end-to-end latency. Departures older than
// the horizon are retired as lost first. Returns the matched frame's ID
// (0 when nothing was in flight) and latency in ticks; slow reports the
// first arrival of a run of arrivals at or above the slow-frame
// threshold — the run's exemplar, which the black box records as a
// slow-frame event. One held line releases its backlog as one run, so
// it leaves one event, not one per frame.
func (r *Recorder) Arrive(now int64) (id uint64, lat int64, slow bool) {
	r.expire(now)
	if r.head == r.tail {
		return 0, 0, false
	}
	d := r.ring[r.head%pipeDepth]
	r.head++
	lat = now - d.at
	if lat < 0 {
		lat = 0
	}
	r.e2e.Observe(lat)
	late := lat >= slowTicks
	slow = late && !r.slowRun
	r.slowRun = late
	if slow {
		r.events.Emit(now, r.name, "slow-frame", "", int64(d.id), lat)
	}
	return d.id, lat, slow
}

// Expire retires departures older than the horizon as lost. Arrive
// does this implicitly; call it from the link's periodic service so
// losses surface during quiet periods too.
func (r *Recorder) Expire(now int64) { r.expire(now) }

func (r *Recorder) expire(now int64) {
	for r.head != r.tail {
		d := r.ring[r.head%pipeDepth]
		if now-d.at <= horizon {
			return
		}
		r.head++
		r.lost.Inc()
	}
}

// Flush retires every in-flight departure as lost — the transport was
// reset, nothing tagged before this point can arrive anymore.
func (r *Recorder) Flush() {
	for r.head != r.tail {
		r.head++
		r.lost.Inc()
	}
}

// Tracked returns the total tagged departures.
func (r *Recorder) Tracked() uint64 { return r.tracked.Value() }

// Lost returns the total departures retired without a match.
func (r *Recorder) Lost() uint64 { return r.lost.Value() }

// P99 returns the current end-to-end p99 latency estimate in ticks.
func (r *Recorder) P99() int64 { return r.e2e.Quantile(0.99) }

// TapRx records received raw wire octets into the black box.
func (r *Recorder) TapRx(p []byte) {
	r.rx.write(p)
	r.wireRx.Add(uint64(len(p)))
}

// Event records one structured event into the black box ring.
func (r *Recorder) Event(at int64, name, detail string, v1, v2 int64) {
	r.events.Emit(at, r.name, name, detail, v1, v2)
}

// Trigger dumps the black box: wire rings, event ring and register
// snapshot are captured atomically into a Capture, appended to the
// bounded in-memory list, written to Config.Dir (when set; a failed
// write is counted, see write) and handed to OnCapture. Must run on the
// owning goroutine (or quiesced sim).
func (r *Recorder) Trigger(reason string) *Capture {
	r.capMu.Lock()
	r.capSeq++
	seq := r.capSeq
	r.byReason[reason]++
	r.capMu.Unlock()

	c := &Capture{
		Link:   r.name,
		Reason: reason,
		Seq:    seq,
		Now:    r.now,
		WallNs: r.cfg.Clock(),
	}
	c.RxBase, c.RxWire = r.rx.snapshot()
	c.Events = r.events.Events()
	if r.RegDump != nil {
		c.Regs = r.RegDump(c.Regs)
	}
	r.capsC.Inc()
	if r.Correlate != nil {
		r.Correlate(c)
	}

	if r.cfg.Dir != "" {
		r.write(c, r.cfg.Dir)
	}
	r.capMu.Lock()
	r.recent = append(r.recent, c)
	if len(r.recent) > recentCaptures {
		r.recent = r.recent[len(r.recent)-recentCaptures:]
	}
	r.capMu.Unlock()

	r.events.Emit(r.now, r.name, "capture", reason, int64(seq), int64(len(c.RxWire)))
	if r.OnCapture != nil {
		r.OnCapture(c)
	}
	if r.cfg.Profiler != nil {
		r.cfg.Profiler(c)
	}
	return c
}

// write lands c in dir. A capture is evidence: one that could not be
// written is counted (flight_capture_write_errors_total) and leaves a
// capture-write-error event in the black box, so every report that
// names capture files can say when one is missing.
func (r *Recorder) write(c *Capture, dir string) {
	if err := c.WriteFile(dir); err != nil {
		r.writeErrs.Inc()
		r.events.Emit(r.now, r.name, "capture-write-error", err.Error(), int64(c.Seq), 0)
	}
}

// AdoptIncident back-stamps a shared incident ID onto the most recent
// correlatable capture when a peer's freeze ping lands within the loss
// horizon. Three cases resolve, newest-first within the horizon:
//
//  1. An uncorrelated capture with the freeze's reason — a correlation
//     follower held its Incident at 0 for exactly this (or the local
//     trigger simply raced the ping); adopt the ID onto it.
//  2. Failing that, the newest uncorrelated capture of any reason.
//  3. A same-reason capture that already minted its own ID locally
//     (crossed pings: both ends triggered for one symmetric event and
//     both thought they led). The pair converges deterministically on
//     the smaller ID — the end holding the larger rewrites, the other
//     ignores the ping. Either way the ping is consumed.
//
// An on-disk capture is rewritten in place so the file pair matches.
// Returns false when no capture qualified (the caller should trigger a
// fresh peer capture instead). Must run on the owning goroutine, like
// Trigger.
func (r *Recorder) AdoptIncident(incident uint64, reason string, peerNow, peerWall int64) bool {
	r.capMu.Lock()
	var target, fallback, crossed *Capture
	for i := len(r.recent) - 1; i >= 0; i-- {
		c := r.recent[i]
		if r.now-c.Now > horizon {
			continue
		}
		if c.Incident == 0 {
			if c.Reason == reason {
				target = c
				break
			}
			if fallback == nil {
				fallback = c
			}
			continue
		}
		if crossed == nil && !c.FromPeer && c.Reason == reason && c.Incident != incident {
			crossed = c
		}
	}
	if target == nil {
		target = fallback
	}
	if target == nil {
		if crossed == nil {
			r.capMu.Unlock()
			return false
		}
		if incident >= crossed.Incident {
			// The peer holds the larger ID and converges to ours.
			r.capMu.Unlock()
			return true
		}
		target = crossed
	}
	target.Incident = incident
	target.PeerNow = peerNow
	target.PeerWallNs = peerWall
	path := target.Path
	r.capMu.Unlock()

	if path != "" {
		r.write(target, filepath.Dir(path))
	}
	r.events.Emit(r.now, r.name, "incident-adopted", target.Reason, int64(target.Seq), int64(incident))
	return true
}

// Captures returns the total number of triggers since arming.
func (r *Recorder) Captures() uint64 {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.capSeq
}

// CapturesFor returns how many captures a given trigger reason
// produced.
func (r *Recorder) CapturesFor(reason string) uint64 {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.byReason[reason]
}

// Recent returns the bounded in-memory capture list, oldest first.
func (r *Recorder) Recent() []*Capture {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return append([]*Capture(nil), r.recent...)
}

// WriteErrors returns how many capture files could not be written.
func (r *Recorder) WriteErrors() uint64 { return r.writeErrs.Value() }

// BurstDetector fires once per burst when Threshold events land inside
// a sliding Window of ticks — the FCS-error-burst capture trigger.
type BurstDetector struct {
	// Window is the burst window in ticks.
	Window int64
	// Threshold is the number of events within Window that constitutes
	// a burst.
	Threshold int

	start int64
	count int
	fired bool
}

// Note records one event at virtual time now and reports whether this
// event completed a fresh burst. After firing, the detector re-arms
// when a new window opens.
func (b *BurstDetector) Note(now int64) bool {
	if b.count == 0 || now-b.start > b.Window {
		b.start = now
		b.count = 0
		b.fired = false
	}
	b.count++
	if !b.fired && b.count >= b.Threshold {
		b.fired = true
		return true
	}
	return false
}
