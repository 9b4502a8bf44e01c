package sonet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// rxLog is everything observable about one deframer run: the emitted
// payload and where in it each frame began, the accepted APS pairs, and
// at the end the counters and the defect monitor's full state.
type rxLog struct {
	Out      []byte
	FrameAt  []int // len(Out) where each delivered frame began
	APS      [][2]byte
	Aligned  bool
	Counters [6]uint64
	K1, K2   byte
	APSValid bool
	Events   []DefectEvent // every transition, through OnEvent
	Monitor  DefectMonitor // OnEvent cleared
	SpanErr  string
	nextOff  int // the offset the next span must carry
}

// hook logs the production deframer: a frame begins at the span with
// off == 0. SpanErr is set when a frame's spans do not tile its payload
// in order (not part of diff: the reference has no spans).
func (l *rxLog) hook(d *Deframer) {
	d.Payload = func(p []byte, off int) {
		if off != l.nextOff && l.SpanErr == "" {
			l.SpanErr = fmt.Sprintf("span at offset %d, want %d (%d octets out)", off, l.nextOff, len(l.Out))
		}
		if off == 0 {
			l.FrameAt = append(l.FrameAt, len(l.Out))
		}
		l.Out = append(l.Out, p...)
		l.nextOff = (off + len(p)) % d.Level.PayloadBytes()
	}
	d.OnAPS = func(k1, k2 byte) { l.APS = append(l.APS, [2]byte{k1, k2}) }
	l.watch(d.Defects)
}

func (l *rxLog) hookRef(d *refDeframer) {
	d.Emit = func(b byte) { l.Out = append(l.Out, b) }
	d.OnFrame = func() { l.FrameAt = append(l.FrameAt, len(l.Out)) }
	d.OnAPS = func(k1, k2 byte) { l.APS = append(l.APS, [2]byte{k1, k2}) }
	l.watch(d.Defects)
}

// watch logs every defect transition of m.
func (l *rxLog) watch(m *DefectMonitor) {
	m.OnEvent = func(e DefectEvent) { l.Events = append(l.Events, e) }
}

func (l *rxLog) finish(d *Deframer) {
	l.Aligned = d.aligned
	l.Counters = [6]uint64{d.FramesOK, d.FramesErrored, d.B1Errors, d.B2Errors,
		d.B3Errors, d.ResyncCount}
	l.K1, l.K2, l.APSValid = d.APSBytes()
	l.Monitor = *d.Defects
	l.Monitor.OnEvent = nil
	if l.nextOff != 0 && l.SpanErr == "" {
		l.SpanErr = fmt.Sprintf("last frame stopped %d octets in", l.nextOff)
	}
}

// diff reports the first difference between two logs, or "".
func (l *rxLog) diff(want *rxLog) string {
	for i, e := range want.Events {
		if i >= len(l.Events) {
			return fmt.Sprintf("defect event %d missing: want %v", i, e)
		}
		if l.Events[i] != e {
			return fmt.Sprintf("defect event %d: got %v, want %v", i, l.Events[i], e)
		}
	}
	if len(l.Events) > len(want.Events) {
		return fmt.Sprintf("defect event %d extra: got %v", len(want.Events), l.Events[len(want.Events)])
	}
	if !bytes.Equal(l.Out, want.Out) {
		return fmt.Sprintf("emitted payload differs (%d vs %d octets)", len(l.Out), len(want.Out))
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"frame start positions", l.FrameAt, want.FrameAt},
		{"OnAPS log", l.APS, want.APS},
		{"aligned", l.Aligned, want.Aligned},
		{"counters (ok errored b1 b2 b3 resync)", l.Counters, want.Counters},
		{"APSBytes", [3]any{l.K1, l.K2, l.APSValid}, [3]any{want.K1, want.K2, want.APSValid}},
		{"defect monitor", l.Monitor, want.Monitor},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s: got %+v, want %+v", f.name, f.got, f.want)
		}
	}
	return ""
}

// chunker cuts a stream into the chunk sizes that stress the bulk
// path: single octets, a few octets, just under / exactly / just over a
// frame, and several frames at once.
func chunker(rng *rand.Rand, fb int) func(left int) int {
	return func(left int) int {
		var n int
		switch rng.Intn(8) {
		case 0:
			n = 1
		case 1:
			n = 1 + rng.Intn(16)
		case 2:
			n = fb - 1
		case 3:
			n = fb
		case 4:
			n = fb + 1
		case 5:
			n = fb*(2+rng.Intn(3)) + rng.Intn(2)
		default:
			n = 1 + rng.Intn(2*fb)
		}
		if n > left {
			n = left
		}
		return n
	}
}

// runBoth feeds line to the reference deframer octet by octet (its only
// mode) and to the production deframer in chunks, and returns both logs.
func runBoth(level Level, line []byte, next func(left int) int) (got, want *rxLog) {
	got, want = &rxLog{}, &rxLog{}
	df := NewDeframer(level, nil)
	got.hook(df)
	ref := newRefDeframer(level, nil)
	want.hookRef(ref)

	ref.Feed(line)
	for len(line) > 0 {
		n := next(len(line))
		df.Feed(line[:n])
		line = line[n:]
	}
	got.finish(df)
	want.finish(&ref.Deframer)
	return got, want
}

// seededSource is one seeded payload stream in both shapes: row fills
// for the span hooks and octet pulls for the reference framer and the
// closure constructors. About one row in twenty runs dry part-way, and
// the rest of that row is flag fill.
func seededSource(level Level, seed int64) (fill func([]byte, int) int, pull func() (byte, bool)) {
	rp := level.rowPayload()
	queued := func(rng *rand.Rand) int {
		if rng.Intn(20) == 0 {
			return rng.Intn(rp)
		}
		return rp
	}
	frng, prng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	fill = func(dst []byte, _ int) int {
		n := queued(frng)
		for i := range dst[:n] {
			dst[i] = byte(frng.Intn(256))
		}
		return n
	}
	col, left := rp, 0 // position in the row, data octets it still holds
	pull = func() (byte, bool) {
		if col == rp {
			col, left = 0, queued(prng)
		}
		col++
		if left == 0 {
			return 0, false
		}
		left--
		return byte(prng.Intn(256)), true
	}
	return fill, pull
}

// buildLine returns frames transport frames from the production framer,
// concatenated, after checking each against the reference framer. The
// payload source runs dry now and then (flag fill) and K1/K2 change
// every few frames.
func buildLine(t *testing.T, level Level, seed int64, frames int) []byte {
	t.Helper()
	fill, pull := seededSource(level, seed)
	fr := NewFramer(level, nil)
	fr.Fill = fill
	ref := &refFramer{Level: level, Pull: pull}
	var line []byte
	for i := 0; i < frames; i++ {
		if i%5 == 3 {
			fr.K1, fr.K2 = byte(i), byte(i>>1)
			ref.K1, ref.K2 = fr.K1, fr.K2
		}
		f, want := fr.NextFrame(), ref.NextFrame()
		if !bytes.Equal(f, want) {
			t.Fatalf("%v frame %d: framer output differs from the reference", level, i)
		}
		line = append(line, f...)
	}
	if fr.FillOctets != ref.FillOctets || fr.FramesBuilt != ref.FramesBuilt || fr.FillOctets == 0 {
		t.Fatalf("framer counters: fill %d/%d built %d/%d", fr.FillOctets, ref.FillOctets, fr.FramesBuilt, ref.FramesBuilt)
	}
	return line
}

// unreached lists each alarm transition m has never made: a raise and a
// clear of each of OOF, LOF, LOS, SD and SF. A scenario that claims to
// exercise the monitor must leave it empty.
func unreached(m *DefectMonitor) []string {
	var miss []string
	for _, n := range defectNames {
		if m.Raises(n.bit) == 0 {
			miss = append(miss, "raise "+n.name)
		}
		if m.Clears(n.bit) == 0 {
			miss = append(miss, "clear "+n.name)
		}
	}
	return miss
}

// TestDifferentialAgainstReference is the oracle for the word-wide
// rebuild: on impaired lines the production framer/deframer/monitor
// must match the byte-at-a-time reference on every frame octet, every
// emitted octet, every counter, the APS filter, and the defect event
// log down to the octet index of each transition. Each line raises and
// clears every alarm at the GR-253 thresholds.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, level := range []Level{STM1, STM16} {
		const frames = 150 // the reference costs ~2 ms per STM-16 frame
		fb := int64(level.FrameBytes())
		los := int64(newDefectMonitor(level).losOctets())
		for seed := int64(1); seed <= 4; seed++ {
			clean := buildLine(t, level, seed, frames)
			rng := rand.New(rand.NewSource(seed * 977))
			var sc fault.Script
			// Bit errors: payload, an A1 octet (errored pattern, sync
			// kept), the B1/B2/B3 and K1/K2 positions themselves.
			sc.Corrupt(3*fb+fb/2, 1, 0x10)
			sc.Corrupt(5*fb+1, 1, 0xFF)
			sc.Corrupt(6*fb+int64(level.rowBytes()), 1, 0x01)
			sc.Corrupt(7*fb+apsRow*int64(level.rowBytes()), 3, 0x80)
			sc.Corrupt(8*fb+2*int64(level.rowBytes())+int64(level.sohBytes()), 1, 0x04)
			// Noise at about eight bit errors a frame for 20 frames: B2
			// errors in nearly every frame of a parity window (SD and
			// SF), then clean windows clear both.
			sc.Noise(10*fb+rng.Int63n(fb), int(20*fb), 1/float64(fb), uint64(seed))
			// Octet slips, one near a frame boundary, and a duplication.
			sc.Insert(34*fb+rng.Int63n(fb), 0xA5)
			sc.Delete(44*fb-1, 1)
			sc.Insert(47*fb+rng.Int63n(fb), a1, a1, a2)
			sc.Duplicate(56*fb+100, 16)
			// Zero runs: one octet short of LOS, exactly LOS, and both
			// straddling a frame boundary; then a cut long enough for
			// OOF and then LOF inside the dead line, followed by enough
			// clean line for LOF and the parity window to clear.
			sc.LOS(66*fb-los/2, int(los-1))
			sc.LOS(68*fb-3, int(los))
			sc.LOS(70*fb+rng.Int63n(fb), int(los+rng.Int63n(fb)))
			sc.LOS(73*fb+rng.Int63n(fb), int((oofBadFrames+lofFrames+4)*fb+rng.Int63n(fb)))
			line := fault.NewInjector(sc).Apply(clean)

			got, want := runBoth(level, line, chunker(rng, int(fb)))
			if d := got.diff(want); d != "" {
				t.Fatalf("%v seed %d: %s", level, seed, d)
			}
			if got.SpanErr != "" {
				t.Fatalf("%v seed %d: %s", level, seed, got.SpanErr)
			}
			// The scenario must really exercise what it claims to.
			m := &want.Monitor
			if miss := unreached(m); len(miss) > 0 || m.Raises(DefLOS) < 3 || m.Raises(DefOOF) < 3 || m.Active() != 0 {
				t.Fatalf("%v seed %d: weak scenario: unreached %v, active %v, events %v", level, seed, miss, m.Active(), want.Events)
			}
			c := want.Counters
			if c[1] == 0 || c[2] == 0 || c[3] == 0 || c[4] == 0 || c[5] < 4 || len(want.APS) < 3 {
				t.Fatalf("%v seed %d: weak scenario: counters %v, %d APS changes", level, seed, c, len(want.APS))
			}
		}
	}
}

// TestClosureConstructorsMatchSpanHooks holds the frozen benchmark's
// adapter to the production exchange: one seeded stream and one fault
// script through NewFramer(pull)/NewDeframer(emit) and through
// Fill/Payload give the same frames, payload, FillOctets, counters and
// defect log, and pull is called exactly once per payload octet — the
// benchmark learns the frame's payload by counting its pulls.
func TestClosureConstructorsMatchSpanHooks(t *testing.T) {
	const level, frames = STM4, 40
	fb := int64(level.FrameBytes())
	var sc fault.Script
	sc.Corrupt(3*fb+fb/2, 1, 0x10)
	sc.Insert(8*fb+77, 0xA5)
	sc.LOS(15*fb+100, int(6*fb))
	sc.Delete(30*fb-1, 1)

	fill, pull := seededSource(level, 11)
	pulls := 0
	viaClosure := NewFramer(level, func() (byte, bool) { pulls++; return pull() })
	viaSpan := NewFramer(level, nil)
	viaSpan.Fill = fill

	var spans, octets rxLog
	dfSpan := NewDeframer(level, nil)
	spans.hook(dfSpan)
	dfOctet := NewDeframer(level, func(b byte) { octets.Out = append(octets.Out, b) })
	dfOctet.OnAPS = func(k1, k2 byte) { octets.APS = append(octets.APS, [2]byte{k1, k2}) }
	octets.watch(dfOctet.Defects)

	injSpan, injOctet := fault.NewInjector(sc), fault.NewInjector(sc)
	for i := 0; i < frames; i++ {
		viaSpan.K1, viaClosure.K1 = byte(i/7), byte(i/7)
		f, g := viaSpan.NextFrame(), viaClosure.NextFrame()
		if !bytes.Equal(f, g) {
			t.Fatalf("frame %d differs between Fill and pull", i)
		}
		if want := (i + 1) * level.PayloadBytes(); pulls != want {
			t.Fatalf("after frame %d: %d pulls, want %d (one per payload octet, fill included)", i, pulls, want)
		}
		dfSpan.Feed(injSpan.Apply(f))
		dfOctet.Feed(injOctet.Apply(g))
	}
	if viaSpan.FillOctets != viaClosure.FillOctets || viaSpan.FillOctets == 0 {
		t.Fatalf("FillOctets: %d via Fill, %d via pull", viaSpan.FillOctets, viaClosure.FillOctets)
	}
	spans.finish(dfSpan)
	octets.finish(dfOctet)
	octets.FrameAt = spans.FrameAt // an octet sink cannot see frame starts
	if d := octets.diff(&spans); d != "" {
		t.Fatalf("emit vs Payload: %s", d)
	}
	if spans.SpanErr != "" || spans.Monitor.Raises(DefLOS) == 0 || spans.Counters[5] < 2 {
		t.Fatalf("weak or broken scenario: %q, events %v, counters %v", spans.SpanErr, spans.Events, spans.Counters)
	}
}

// TestDefectMonitorOctetsMatchesPerOctet drives the bulk line-rate
// observer and the per-octet reference with the same octets and the
// same framing and parity verdicts at random points, and compares the
// complete monitor state: zero runs that straddle chunks, LOS
// transitions mid-chunk, and the LOF timer crossing mid-chunk. The
// verdicts come in phases (clean, misframed, clean, parity-errored),
// each long enough at the GR-253 thresholds for its alarms to raise and
// the next to clear them.
func TestDefectMonitorOctetsMatchesPerOctet(t *testing.T) {
	fb := STM1.FrameBytes()
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bulk, ref := newDefectMonitor(STM1), newDefectMonitor(STM1)
		for phase := 0; phase < 8; phase++ {
			misframed, errored := 0.02, 0.0 // chance per verdict
			switch phase % 4 {
			case 1:
				misframed = 0.9 // OOF, then LOF once it persists
			case 3:
				errored = 0.9 // SD and SF
			}
			for step := 30 + rng.Intn(20); step > 0; step-- {
				p := make([]byte, rng.Intn(3*fb))
				rng.Read(p)
				for holes := rng.Intn(6); holes > 0 && len(p) > 0; holes-- {
					at := rng.Intn(len(p))
					end := at + rng.Intn(80)
					if rng.Intn(4) == 0 {
						end = len(p) // a run that continues into the next chunk
					}
					clear(p[at:min(end, len(p))])
				}
				if rng.Intn(8) == 0 {
					clear(p)
				}
				bulk.octets(p)
				for _, b := range p {
					refOctetIn(ref, b)
				}
				ok, bad := rng.Float64() >= misframed, rng.Float64() < errored
				bulk.FrameResult(ok, bad)
				ref.FrameResult(ok, bad)
				if !reflect.DeepEqual(bulk, ref) {
					t.Fatalf("seed %d phase %d: monitors diverge\nbulk %+v\n ref %+v", seed, phase, bulk, ref)
				}
			}
		}
		if miss := unreached(ref); len(miss) > 0 {
			t.Fatalf("seed %d: weak scenario: unreached %v", seed, miss)
		}
	}
}
