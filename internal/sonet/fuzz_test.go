package sonet

import (
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

// FuzzDeframerChunking: how a line is cut into Feed calls must be
// invisible. Arbitrary line octets go to one deframer in an arbitrary
// chunking (cuts, two octets per chunk length, cycled), to a second one
// octet at a time, and to the byte-at-a-time reference; emitted
// payload, frame starts and OnAPS callbacks, every counter and the
// defect event log must agree. Thresholds are small so a few frames of
// input reach LOS, LOF and SD/SF.
func FuzzDeframerChunking(f *testing.F) {
	const fb = 2430 // STM-1
	fr := NewFramer(STM1, nil)
	fr.Fill = func(dst []byte, off int) int {
		for i := range dst {
			dst[i] = byte((off + i) * 7)
		}
		return len(dst) - off%7 // a few octets of flag fill on most rows
	}
	var line []byte
	for i := 0; i < 6; i++ {
		fr.K1 = byte(i / 3)
		line = append(line, fr.NextFrame()...)
	}
	cuts := func(ns ...int) (c []byte) {
		for _, n := range ns {
			c = append(c, byte(n), byte(n>>8))
		}
		return c
	}
	f.Add(line, cuts(fb))   // whole aligned frames: checked in the caller's slice
	f.Add(line, cuts(fb-1)) // every chunk one octet short of a frame
	f.Add(line, cuts(fb+1)) // ... and one over
	f.Add(line, cuts(3*fb, 1, 5))
	// Garbage, two frames, a three-frame line cut, the rest.
	f.Add(slices.Concat([]byte{1, 2, 3}, line[:2*fb+40], make([]byte, 3*fb), line[2*fb:]), cuts(fb, 17, 2*fb+9))
	f.Add(slices.Concat(line[:fb+100], line[fb+101:]), cuts(700)) // one-octet slip
	f.Fuzz(func(t *testing.T, line, cuts []byte) {
		cfg := defectConfig{LOFFrames: 2, LOSOctets: 24, WindowFrames: 4, SDFrames: 1, SFFrames: 3}
		at := 0
		chunked, want := runBoth(STM1, cfg, line, func(left int) int {
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
		single, _ := runBoth(STM1, cfg, line, func(int) int { return 1 })
		if d := single.diff(chunked); d != "" {
			t.Fatalf("octet-by-octet vs chunked: %s", d)
		}
		if single.SpanErr != "" {
			t.Fatalf("octet-by-octet spans: %s", single.SpanErr)
		}
	})
}
