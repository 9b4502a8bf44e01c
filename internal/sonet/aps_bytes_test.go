package sonet

import (
	"math/rand"
	"testing"
)

// TestK1K2CarriedAndFiltered: APS bytes set on the framer arrive at the
// deframer, but only after persisting for apsAcceptFrames consecutive
// frames — a one-frame glitch must not be accepted.
func TestK1K2CarriedAndFiltered(t *testing.T) {
	fr := constFramer(STM1, 0x42)
	var accepted [][2]byte
	df := NewDeframer(STM1, nil)
	df.OnAPS = func(k1, k2 byte) { accepted = append(accepted, [2]byte{k1, k2}) }

	// Steady zero K1/K2 for a few frames: the zero pair is accepted once.
	for i := 0; i < 4; i++ {
		df.Feed(fr.NextFrame())
	}
	if _, _, ok := df.APSBytes(); !ok {
		t.Fatal("steady K1/K2 never accepted")
	}
	if len(accepted) != 1 || accepted[0] != [2]byte{0, 0} {
		t.Fatalf("accepted = %v, want one zero pair", accepted)
	}

	// A single-frame glitch must be filtered out.
	fr.K1, fr.K2 = 0xC1, 0x15
	df.Feed(fr.NextFrame())
	fr.K1, fr.K2 = 0, 0
	for i := 0; i < 3; i++ {
		df.Feed(fr.NextFrame())
	}
	if len(accepted) != 1 {
		t.Fatalf("glitch accepted: %v", accepted)
	}

	// A persistent change is accepted after exactly apsAcceptFrames.
	fr.K1, fr.K2 = 0xC1, 0x15
	df.Feed(fr.NextFrame())
	df.Feed(fr.NextFrame())
	if len(accepted) != 1 {
		t.Fatal("accepted after only two frames")
	}
	df.Feed(fr.NextFrame())
	if len(accepted) != 2 || accepted[1] != [2]byte{0xC1, 0x15} {
		t.Fatalf("persistent change not accepted: %v", accepted)
	}
	k1, k2, ok := df.APSBytes()
	if !ok || k1 != 0xC1 || k2 != 0x15 {
		t.Errorf("APSBytes = %#x/%#x/%v", k1, k2, ok)
	}
}

// TestB2CleanLine: no line parity errors on an unimpaired section.
func TestB2CleanLine(t *testing.T) {
	payload := make([]byte, 8000)
	rand.New(rand.NewSource(9)).Read(payload)
	_, df := pump(t, STM1, payload, 6, nil)
	if df.B2Errors != 0 {
		t.Errorf("B2 errors on clean line: %d", df.B2Errors)
	}
	// K1/K2 carriage must also survive STM-4 geometry.
	fr := constFramer(STM4, 0x11)
	fr.K1, fr.K2 = 0xAA, 0x05
	df4 := NewDeframer(STM4, nil)
	for i := 0; i < 4; i++ {
		df4.Feed(fr.NextFrame())
	}
	if k1, k2, ok := df4.APSBytes(); !ok || k1 != 0xAA || k2 != 0x05 {
		t.Errorf("STM-4 APSBytes = %#x/%#x/%v", k1, k2, ok)
	}
	if df4.B2Errors != 0 {
		t.Errorf("STM-4 B2 errors on clean line: %d", df4.B2Errors)
	}
}

// TestB2CatchesLineCorruption: a payload hit shows up in the next
// frame's B2 (and B1); a section-overhead-only hit shows up in B1 but
// NOT in B2, and therefore must not advance the SD/SF window.
func TestB2CatchesLineCorruption(t *testing.T) {
	payload := make([]byte, 9000)
	rand.New(rand.NewSource(10)).Read(payload)
	_, df := pump(t, STM1, payload, 5, func(f []byte, i int) {
		if i == 1 {
			f[len(f)/2] ^= 0x40 // payload region: line + section parity
		}
	})
	if df.B2Errors == 0 {
		t.Error("B2 did not catch payload corruption")
	}
	if df.B1Errors == 0 {
		t.Error("B1 did not catch payload corruption")
	}

	// Section-overhead-only corruption: row 1, an unused overhead byte
	// (inside B1 coverage, outside both the B2 rows and the path).
	row := 270
	_, df2 := pump(t, STM1, payload, 5, func(f []byte, i int) {
		if i >= 1 && i <= 3 {
			f[row+4] ^= 0xFF
		}
	})
	if df2.B1Errors == 0 {
		t.Error("B1 missed section-overhead corruption")
	}
	if df2.B2Errors != 0 {
		t.Errorf("B2 errors from section-only corruption: %d", df2.B2Errors)
	}
}

// TestSDDerivesFromLineParity: SD/SF declaration integrates the
// measured B2 verdicts — sustained line corruption raises SD, while
// the same rate of section-overhead-only corruption does not.
func TestSDDerivesFromLineParity(t *testing.T) {
	mangleLine := func(f []byte, i int) {
		if i >= 1 {
			f[len(f)/2] ^= 0x20 // payload: B2-visible
		}
	}
	mangleSection := func(f []byte, i int) {
		if i >= 1 {
			f[270+4] ^= 0x20 // row-1 overhead: B1-visible only
		}
	}
	payload := make([]byte, 60000)
	rand.New(rand.NewSource(11)).Read(payload)

	_, dfLine := pump(t, STM1, payload, 24, mangleLine)
	if !dfLine.Defects.has(DefSD) {
		t.Error("sustained line corruption did not raise SD")
	}
	_, dfSec := pump(t, STM1, payload, 24, mangleSection)
	if dfSec.Defects.has(DefSD) || dfSec.Defects.has(DefSF) {
		t.Errorf("section-only corruption raised %v", dfSec.Defects.Active())
	}
	if dfSec.B1Errors == 0 {
		t.Error("section corruption not even counted")
	}
}
