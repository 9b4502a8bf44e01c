package hdlc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterPacksLSBFirst(t *testing.T) {
	var w BitWriter
	for _, b := range []byte{1, 0, 1, 1, 0, 0, 1, 0} { // 0b01001101 = 0x4D
		w.WriteBit(b)
	}
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x4D {
		t.Errorf("bytes = % x", got)
	}
}

func TestBitWriterPadsWithOnes(t *testing.T) {
	var w BitWriter
	w.WriteBit(0)
	w.WriteBit(0)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0xFC {
		t.Errorf("padded byte = %#x, want 0xfc", got[0])
	}
}

func TestBitStuffInsertsZeros(t *testing.T) {
	// 0xFF has eight 1 bits: a zero must be inserted after the fifth.
	var w BitWriter
	BitStuff(&w, []byte{0xFF})
	var d BitDestuffer
	d.Feed(w.Bytes())
	if len(d.Frames) != 1 || !bytes.Equal(d.Frames[0], []byte{0xFF}) {
		t.Fatalf("frames = % x", d.Frames)
	}
}

func TestBitRoundTripFlagPayload(t *testing.T) {
	// A payload full of flag octets must survive bit transparency.
	body := bytes.Repeat([]byte{0x7E}, 9)
	var w BitWriter
	BitStuff(&w, body)
	var d BitDestuffer
	d.Feed(w.Bytes())
	if len(d.Frames) != 1 || !bytes.Equal(d.Frames[0], body) {
		t.Fatalf("frames = % x", d.Frames)
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) == 0 {
			return true
		}
		var w BitWriter
		BitStuff(&w, body)
		var d BitDestuffer
		d.Feed(w.Bytes())
		return len(d.Frames) == 1 && bytes.Equal(d.Frames[0], body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitMultiFrameStream(t *testing.T) {
	bodies := [][]byte{
		{0x01},
		bytes.Repeat([]byte{0xFF}, 5),
		{0x7E, 0x7D, 0xAA},
	}
	var w BitWriter
	for _, b := range bodies {
		BitStuff(&w, b)
	}
	var d BitDestuffer
	d.Feed(w.Bytes())
	if len(d.Frames) != len(bodies) {
		t.Fatalf("got %d frames, want %d", len(d.Frames), len(bodies))
	}
	for i := range bodies {
		if !bytes.Equal(d.Frames[i], bodies[i]) {
			t.Errorf("frame %d: % x", i, d.Frames[i])
		}
	}
}

func TestBitDestufferChunking(t *testing.T) {
	body := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF}
	var w BitWriter
	BitStuff(&w, body)
	stream := w.Bytes()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		var d BitDestuffer
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(3)
			if off+n > len(stream) {
				n = len(stream) - off
			}
			d.Feed(stream[off : off+n])
			off += n
		}
		if len(d.Frames) != 1 || !bytes.Equal(d.Frames[0], body) {
			t.Fatalf("trial %d: frames = % x", trial, d.Frames)
		}
	}
}

func TestBitAbortSequence(t *testing.T) {
	// Open a frame, push some bits, then hold the line at 1 (idle):
	// seven+ ones abort the frame.
	var d BitDestuffer
	var w BitWriter
	writeFlag(&w)
	for i := 0; i < 8; i++ {
		w.WriteBit(0) // one data octet's worth of zeros
	}
	for i := 0; i < 10; i++ {
		w.WriteBit(1) // abort
	}
	d.Feed(w.Bytes())
	if len(d.Frames) != 0 {
		t.Errorf("aborted frame delivered: % x", d.Frames)
	}
	if d.Aborts != 1 {
		t.Errorf("Aborts = %d", d.Aborts)
	}
}

func TestBitIdleBetweenFrames(t *testing.T) {
	// Inter-frame idle (all ones) then a valid frame.
	var w BitWriter
	for i := 0; i < 24; i++ {
		w.WriteBit(1)
	}
	BitStuff(&w, []byte{0x42})
	var d BitDestuffer
	d.Feed(w.Bytes())
	if len(d.Frames) != 1 || d.Frames[0][0] != 0x42 {
		t.Fatalf("frames = % x", d.Frames)
	}
}

func TestBitSharedFlag(t *testing.T) {
	// Two frames sharing a single flag between them.
	var w BitWriter
	writeFlag(&w)
	stuffBody := func(body []byte) {
		run := 0
		for _, octet := range body {
			for i := 0; i < 8; i++ {
				bit := octet >> uint(i) & 1
				w.WriteBit(bit)
				if bit == 1 {
					run++
					if run == 5 {
						w.WriteBit(0)
						run = 0
					}
				} else {
					run = 0
				}
			}
		}
	}
	stuffBody([]byte{0x11})
	writeFlag(&w) // shared
	stuffBody([]byte{0x22})
	writeFlag(&w)
	var d BitDestuffer
	d.Feed(w.Bytes())
	if len(d.Frames) != 2 || d.Frames[0][0] != 0x11 || d.Frames[1][0] != 0x22 {
		t.Fatalf("frames = % x", d.Frames)
	}
}

func TestBitTransparencyEquivalence(t *testing.T) {
	// Property: bit-stuffed and octet-stuffed transparency both carry
	// any FCS-sealed frame body intact — the two RFC 1662 modes agree.
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		// Octet path.
		enc := ReferenceEncode(nil, payload, ACCMNone, false)
		var tk Tokenizer
		toks := tk.Feed(nil, enc)
		if len(toks) != 1 || !bytes.Equal(toks[0].Body, payload) {
			return false
		}
		// Bit path.
		var w BitWriter
		BitStuff(&w, payload)
		var d BitDestuffer
		d.Feed(w.Bytes())
		return len(d.Frames) == 1 && bytes.Equal(d.Frames[0], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
