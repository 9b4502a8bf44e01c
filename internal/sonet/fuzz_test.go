package sonet

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/fault"
)

// FuzzDeframer must survive arbitrary line garbage in any chunking and
// still re-acquire alignment on subsequent clean frames. The defect
// hysteresis integrates several errored framing patterns before
// re-hunting, so recovery is given a dozen clean frames.
func FuzzDeframer(f *testing.F) {
	f.Add([]byte{0xF6, 0xF6, 0xF6, 0x28, 0x28, 0x28})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, garbage []byte) {
		df := NewDeframer(STM1, nil)
		df.Feed(garbage)
		fr := constFramer(STM1, 0x42)
		before := df.FramesOK
		for i := 0; i < 12; i++ {
			df.Feed(fr.NextFrame())
		}
		if df.FramesOK < before+2 {
			t.Fatalf("did not recover after garbage: %d frames", df.FramesOK-before)
		}
	})
}

// FuzzDeframerByteSlip injects byte insert/delete slips at arbitrary
// offsets so the corpus exercises descrambler realignment and the OOF
// integration, not just in-place corruption: whatever the slip, a run
// of clean frames must always bring the deframer back in frame with no
// latched defects.
func FuzzDeframerByteSlip(f *testing.F) {
	f.Add(uint32(100), true, byte(0))
	f.Add(uint32(2430), false, byte(0xF6))
	f.Add(uint32(7), false, byte(0x28))
	f.Fuzz(func(t *testing.T, at uint32, del bool, ins byte) {
		fr := constFramer(STM1, 0x42)
		df := NewDeframer(STM1, nil)

		// Two clean frames, then a slip somewhere in the next three.
		span := int64(3 * STM1.FrameBytes())
		var script fault.Script
		if del {
			script.Delete(int64(at)%span, 1)
		} else {
			script.Insert(int64(at)%span, ins)
		}
		inj := fault.NewInjector(script)
		for i := 0; i < 2; i++ {
			df.Feed(fr.NextFrame())
		}
		for i := 0; i < 3; i++ {
			df.Feed(inj.Apply(fr.NextFrame()))
		}
		before := df.FramesOK
		for i := 0; i < 14; i++ {
			df.Feed(fr.NextFrame())
		}
		if df.FramesOK < before+2 {
			t.Fatalf("did not recover after slip: %d frames", df.FramesOK-before)
		}
		if !df.aligned {
			t.Fatal("not aligned after clean tail")
		}
		if d := df.Defects.Active() & (DefOOF | DefLOF | DefLOS); d != 0 {
			t.Fatalf("defects latched after recovery: %v", d)
		}
	})
}

// expand turns a compact per-frame program into STM-1 line octets, so a
// few dozen program octets reach alarms whose thresholds count frames.
// Each program octet is one frame time of a seeded framer: the low three
// bits pick what the line carries and the rest is an argument a (0…31).
//
//	0, 1  the frame
//	2     a dead frame: all zeros (LOS, and OOF then LOF as it persists)
//	3     the frame with its first A1 octet errored
//	4     the frame with one payload octet inverted (B2 errors: SD, SF)
//	5     the frame less a+1 octets at offset 75·a (a slip)
//	6     a+1 octets of garbage, then the frame
//	7     the frame with its last 16·a octets zeroed (a zero run)
//
// Programs longer than maxProgram are cut there.
func expand(prog []byte) []byte {
	const maxProgram = 256
	fb := STM1.FrameBytes()
	fr := NewFramer(STM1, nil)
	fr.Fill = func(dst []byte, off int) int {
		for i := range dst {
			dst[i] = byte((off + i) * 7)
		}
		return len(dst) - off%7 // a few octets of flag fill on most rows
	}
	var line []byte
	for i, op := range prog[:min(len(prog), maxProgram)] {
		fr.K1 = byte(i / 3)
		f, a := fr.NextFrame(), int(op>>3)
		switch op & 7 {
		case 2:
			line = append(line, make([]byte, fb)...)
		case 3:
			line = append(append(line, f[0]^0xFF), f[1:]...)
		case 4:
			line = append(line, f...)
			line[len(line)-fb/2] ^= 0xFF
		case 5:
			line = append(append(line, f[:75*a]...), f[75*a+a+1:]...)
		case 6:
			for j := 0; j <= a; j++ {
				line = append(line, byte(j*31+a))
			}
			line = append(line, f...)
		case 7:
			line = append(line, f...)
			clear(line[len(line)-16*a:])
		default:
			line = append(line, f...)
		}
	}
	return line
}

// chunkingSeeds is FuzzDeframerChunking's seed corpus: per-frame
// programs (see expand) and the chunk lengths to cut their lines into.
// TestChunkingSeedsReachEveryAlarm holds it to raising and clearing
// every defect, so the fuzzer always starts from inputs that exercise
// the monitor.
var chunkingSeeds = func() (seeds [][2][]byte) {
	const fb = 2430 // STM-1
	cuts := func(ns ...int) (c []byte) {
		for _, n := range ns {
			c = append(c, byte(n), byte(n>>8))
		}
		return c
	}
	run := func(op byte, n int) []byte { return bytes.Repeat([]byte{op}, n) }
	add := func(cut []byte, prog ...[]byte) { seeds = append(seeds, [2][]byte{slices.Concat(prog...), cut}) }
	six := run(0, 6)
	add(cuts(fb), six)   // whole aligned frames: checked in the caller's slice
	add(cuts(fb-1), six) // every chunk one octet short of a frame
	add(cuts(fb+1), six) // ... and one over
	add(cuts(3*fb, 1, 5), six)
	// Garbage before a frame, two more, a three-frame line cut, the rest.
	add(cuts(fb, 17, 2*fb+9), []byte{6 | 2<<3, 0, 0}, run(2, 3), run(0, 4))
	add(cuts(700), []byte{0, 5 | 1<<3}, run(0, 4)) // a two-octet slip
	// A cut long enough for OOF and LOF, then enough line to clear them;
	// zero runs short of and past LOS on the way in.
	add(cuts(fb+3, 977), run(0, 3), []byte{7 | 18<<3, 0, 7 | 19<<3, 0}, run(2, oofBadFrames+lofFrames+2), run(0, lofFrames+4))
	// Errored A1 patterns short of OOF and enough for it; a parity burst
	// for SD and SF, then clean windows to clear them.
	add(cuts(2*fb+1, 33), run(0, 2), run(3, 3), run(0, 2), run(3, oofBadFrames), run(0, 4),
		run(4, windowFrames+4), run(0, 2*windowFrames+2))
	return seeds
}()

// TestChunkingSeedsReachEveryAlarm: between them, FuzzDeframerChunking's
// seeds raise and clear every defect the monitor models.
func TestChunkingSeedsReachEveryAlarm(t *testing.T) {
	var all DefectMonitor
	for _, s := range chunkingSeeds {
		df := NewDeframer(STM1, nil)
		df.Feed(expand(s[0]))
		for i := range all.raises {
			all.raises[i] += df.Defects.raises[i]
			all.clears[i] += df.Defects.clears[i]
		}
	}
	if miss := unreached(&all); len(miss) > 0 {
		t.Fatalf("the seed corpus never reaches %v", miss)
	}
}

// FuzzDeframerChunking: how a line is cut into Feed calls must be
// invisible. A line expanded from a per-frame program goes to one
// deframer in an arbitrary chunking (cuts, two octets per chunk length,
// cycled), to a second one octet at a time, and to the byte-at-a-time
// reference; emitted payload, frame starts and OnAPS callbacks, every
// counter and the defect event log must agree.
func FuzzDeframerChunking(f *testing.F) {
	for _, s := range chunkingSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, prog, cuts []byte) {
		line := expand(prog)
		at := 0
		chunked, want := runBoth(STM1, line, func(left int) int {
			n := left
			if len(cuts) >= 2 {
				n = int(cuts[at]) | int(cuts[at+1])<<8
				if at += 2; at+1 >= len(cuts) {
					at = 0
				}
			}
			return max(1, min(n, left))
		})
		if d := chunked.diff(want); d != "" {
			t.Fatalf("chunked vs reference: %s", d)
		}
		// Each delivered frame's spans tile its payload: offsets
		// ascending from 0, lengths summing to PayloadBytes.
		if chunked.SpanErr != "" {
			t.Fatalf("chunked spans: %s", chunked.SpanErr)
		}
		single, _ := runBoth(STM1, line, func(int) int { return 1 })
		if d := single.diff(chunked); d != "" {
			t.Fatalf("octet-by-octet vs chunked: %s", d)
		}
		if single.SpanErr != "" {
			t.Fatalf("octet-by-octet spans: %s", single.SpanErr)
		}
	})
}
