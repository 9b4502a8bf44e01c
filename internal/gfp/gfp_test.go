package gfp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hdlc"
)

// overhead is GFP's fixed per-frame octet cost, the figure experiment
// E15 sets against HDLC's data-dependent one.
const overhead = coreHeaderLen + typeHeaderLen

// encodeIdle appends one 4-octet idle frame (PLI = 0, scrambled): the
// fill a mapper sends between client frames, which the decoder skips.
func encodeIdle(dst []byte) []byte {
	return append(dst, coreScramble[:]...)
}

func TestCRC16Vector(t *testing.T) {
	// CRC-16/XMODEM (same generator, zero init, MSB first) of
	// "123456789" is 0x31C3.
	if got := crc16CCITT([]byte("123456789")); got != 0x31C3 {
		t.Errorf("crc = %#04x, want 0x31c3", got)
	}
}

func TestEncodeLayout(t *testing.T) {
	out, err := Encode(nil, []byte{0xAA, 0xBB})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != overhead+2 {
		t.Fatalf("len = %d", len(out))
	}
	// PLI covers type header + payload = 6 (descrambled).
	if out[0]^0xB6 != 0 || out[1]^0xAB != 6 {
		t.Errorf("PLI = % x", out[:2])
	}
	if _, err := Encode(nil, make([]byte, maxPayload+1)); err != errTooLong {
		t.Error("oversize accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var stream []byte
		var want [][]byte
		for _, p := range payloads {
			if len(p) > maxPayload {
				p = p[:maxPayload]
			}
			var err error
			stream, err = Encode(stream, p)
			if err != nil {
				return false
			}
			want = append(want, p)
			stream = encodeIdle(stream) // idle fill between frames
		}
		var got [][]byte
		d := &deframer{Deliver: func(p []byte) { got = append(got, append([]byte(nil), p...)) }}
		d.feed(stream)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDelineationFromMidStream(t *testing.T) {
	var stream []byte
	for i := 0; i < 5; i++ {
		stream, _ = Encode(stream, bytes.Repeat([]byte{byte(i)}, 50))
	}
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	// Join mid-frame: drop the first 17 octets.
	d.feed(stream[17:])
	if d.delineation() != sync {
		t.Fatalf("state = %v", d.delineation())
	}
	// The partial first frame is unrecoverable; the rest delineate.
	// Hunting may skip into frame 2 depending on where the cHEC
	// coincidence lands, so require at least 3.
	if got < 3 {
		t.Errorf("delivered %d frames after mid-stream join", got)
	}
}

func TestChunkedFeed(t *testing.T) {
	var stream []byte
	for i := 0; i < 8; i++ {
		stream, _ = Encode(stream, bytes.Repeat([]byte{byte(i + 1)}, 33))
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		var got int
		d := &deframer{Deliver: func([]byte) { got++ }}
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(11)
			if off+n > len(stream) {
				n = len(stream) - off
			}
			d.feed(stream[off : off+n])
			off += n
		}
		if got != 8 {
			t.Fatalf("trial %d: %d frames", trial, got)
		}
	}
}

func TestSingleBitCorrectionInSync(t *testing.T) {
	var stream []byte
	for i := 0; i < 4; i++ {
		stream, _ = Encode(stream, bytes.Repeat([]byte{0x55}, 40))
	}
	// Flip one bit in the THIRD frame's core header (deframer is in
	// SYNC by then).
	frameLen := overhead + 40
	pos := 2 * frameLen // start of frame 3's core header
	stream[pos] ^= 0x04 // PLI high byte bit
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	d.feed(stream)
	if got != 4 {
		t.Fatalf("delivered %d/4 with correctable error", got)
	}
	if d.Corrected != 1 {
		t.Errorf("Corrected = %d", d.Corrected)
	}
	if d.delineation() != sync {
		t.Errorf("state = %v", d.delineation())
	}
}

func TestMultiBitHeaderErrorForcesRehunt(t *testing.T) {
	// Zero payloads parse as idle frames during the hunt, so
	// re-acquisition cannot false-lock on payload bytes (a content-
	// dependent hazard that is inherent to HEC delineation — see
	// TestFalseLockOnPayloadStallsHunt).
	var stream []byte
	for i := 0; i < 6; i++ {
		stream, _ = Encode(stream, make([]byte, 40))
	}
	frameLen := overhead + 40
	pos := 2 * frameLen
	damageUncorrectably(t, stream[pos:pos+coreHeaderLen])
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	d.feed(stream)
	if d.Hunts == 0 {
		t.Error("no re-hunt recorded")
	}
	// Frames before the damage and after re-acquisition arrive; the
	// damaged frame itself is lost.
	if got < 4 {
		t.Errorf("delivered %d/6 around the damage", got)
	}
}

// damageUncorrectably applies a two-bit error to a core header that no
// single-bit "correction" can (mis-)repair — single-bit correction of
// multi-bit errors is a real GFP mis-correction hazard, so the damage
// pattern must be chosen deterministically.
func damageUncorrectably(t *testing.T, hdr []byte) {
	t.Helper()
	consistent := func(h []byte) bool {
		var u [4]byte
		for i := range u {
			u[i] = h[i] ^ coreScramble[i]
		}
		return uint16(u[2])<<8|uint16(u[3]) == crc16CCITT(u[:2])
	}
	correctable := func(h []byte) bool {
		tmp := append([]byte(nil), h...)
		for bit := 0; bit < 32; bit++ {
			tmp[bit/8] ^= 0x80 >> uint(bit%8)
			if consistent(tmp) {
				return true
			}
			tmp[bit/8] ^= 0x80 >> uint(bit%8)
		}
		return false
	}
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			hdr[i/8] ^= 0x80 >> uint(i%8)
			hdr[j/8] ^= 0x80 >> uint(j%8)
			if !consistent(hdr) && !correctable(hdr) {
				return
			}
			hdr[i/8] ^= 0x80 >> uint(i%8)
			hdr[j/8] ^= 0x80 >> uint(j%8)
		}
	}
	t.Fatal("no uncorrectable 2-bit pattern found")
}

func TestFalseLockOnPayloadStallsHunt(t *testing.T) {
	// The known weakness of HEC delineation: hunting through payload
	// bytes can false-lock on a coincidental cHEC match whose garbage
	// PLI then swallows line octets until disproven. Verify the
	// deframer survives (re-disproves) when the line keeps flowing.
	var stream []byte
	for i := 0; i < 3; i++ {
		stream, _ = Encode(stream, bytes.Repeat([]byte{0x66}, 40))
	}
	stream[0] ^= 0xFF // destroy the very first header: hunt from octet 0
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	d.feed(stream)
	// Keep the line alive with idle fill until delineation recovers.
	for i := 0; i < 20000 && d.delineation() != sync; i++ {
		d.feed(encodeIdle(nil))
	}
	if d.delineation() != sync {
		t.Fatalf("never re-acquired: %v", d.delineation())
	}
}

func TestCorruptTypeHeaderDropsOnlyThatFrame(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		stream, _ = Encode(stream, []byte{1, 2, 3})
	}
	// Damage frame 2's type header (core header intact: length still
	// delineates).
	frameLen := overhead + 3
	stream[frameLen+coreHeaderLen] ^= 0xFF
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	d.feed(stream)
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
	if d.HECErrors == 0 {
		t.Error("tHEC failure not counted")
	}
	if d.delineation() != sync {
		t.Errorf("delineation lost: %v", d.delineation())
	}
}

func TestIdleFramesCounted(t *testing.T) {
	var stream []byte
	stream = encodeIdle(stream)
	stream = encodeIdle(stream)
	stream, _ = Encode(stream, []byte{9})
	var got int
	d := &deframer{Deliver: func([]byte) { got++ }}
	d.feed(stream)
	if got != 1 || d.Idles != 2 {
		t.Errorf("frames=%d idles=%d", got, d.Idles)
	}
}

// TestOverheadComparisonVsHDLC is experiment E15: GFP's fixed 8-octet
// overhead versus HDLC's content-dependent stuffing. HDLC wins on clean
// payloads (2 flag octets + no stuffing); GFP wins once escape density
// makes stuffing expand the payload by more than the header difference.
func TestOverheadComparisonVsHDLC(t *testing.T) {
	frame := 1500
	hdlcOverhead := func(density float64) float64 {
		// 2 flags + expected stuffing expansion.
		return 2 + density*float64(frame)
	}
	gfpOverhead := float64(overhead)
	// Crossover density: where stuffing cost exceeds the 6-octet
	// header difference: (8-2)/1500 = 0.4%.
	cross := (gfpOverhead - 2) / float64(frame)
	if hdlcOverhead(cross/2) > gfpOverhead {
		t.Error("HDLC should win below the crossover")
	}
	if hdlcOverhead(cross*2) < gfpOverhead {
		t.Error("GFP should win above the crossover")
	}
	// And the empirical check with the real encoders at 5% density.
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, frame)
	for i := range payload {
		if rng.Float64() < 0.05 {
			payload[i] = hdlc.Flag
		} else {
			payload[i] = 0x40
		}
	}
	hdlcLine := hdlc.ReferenceEncode(nil, payload, hdlc.ACCMNone, false)
	gfpLine, _ := Encode(nil, payload)
	if len(gfpLine) >= len(hdlcLine) {
		t.Errorf("at 5%% density GFP (%d) should beat HDLC (%d)", len(gfpLine), len(hdlcLine))
	}
}
