package hdlc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Bit-synchronous framing (RFC 1662 §5): on links that preserve bit
// boundaries rather than octet boundaries, transparency is achieved by
// zero-bit insertion — after five contiguous 1 bits the transmitter
// inserts a 0, so the flag's 01111110 pattern can never appear inside a
// frame. The paper's P5 uses the octet-stuffed variant (SONET is octet
// synchronous) and nothing in the module frames bit-synchronously, so
// this sibling mode is a model that lives with its tests: an independent
// transparency mechanism TestBitTransparencyEquivalence holds the octet
// codec against.

// BitWriter accumulates a bit stream LSB-first into bytes.
type BitWriter struct {
	buf  []byte
	cur  byte
	nbit uint
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b byte) {
	w.cur |= (b & 1) << w.nbit
	w.nbit++
	if w.nbit == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur = 0
		w.nbit = 0
	}
}

// Bytes returns the completed bytes; a trailing partial byte is padded
// with ones (idle line).
func (w *BitWriter) Bytes() []byte {
	out := w.buf
	if w.nbit != 0 {
		pad := w.cur
		for i := w.nbit; i < 8; i++ {
			pad |= 1 << i
		}
		out = append(out, pad)
	}
	return out
}

// BitStuff appends the zero-bit-inserted encoding of one frame to the
// writer: opening flag, stuffed body bits, closing flag. Bits are
// transmitted LSB first, matching the serial convention used by the FCS.
func BitStuff(w *BitWriter, frame []byte) {
	writeFlag(w)
	run := 0
	for _, octet := range frame {
		for i := 0; i < 8; i++ {
			bit := octet >> uint(i) & 1
			w.WriteBit(bit)
			if bit == 1 {
				run++
				if run == 5 {
					w.WriteBit(0) // inserted zero
					run = 0
				}
			} else {
				run = 0
			}
		}
	}
	writeFlag(w)
}

func writeFlag(w *BitWriter) {
	// 0x7E LSB-first: 0 1 1 1 1 1 1 0.
	for i := 0; i < 8; i++ {
		w.WriteBit(Flag >> uint(i) & 1)
	}
}

// BitDestuffer recovers frames from a zero-bit-inserted bit stream,
// the way synchronous HDLC receivers do it: an 8-bit shift register
// detects the raw flag pattern 01111110 independent of transparency;
// the raw bits accumulated between two flags are then destuffed (any 0
// following five contiguous 1s is removed). Seven or more contiguous
// 1 bits abort the in-progress frame (HDLC idle/abort). Frames whose
// destuffed length is not a whole number of octets are counted as
// damaged and dropped.
type BitDestuffer struct {
	Frames  [][]byte
	Aborts  uint64
	Damaged uint64

	last8   byte   // raw shift register, oldest bit at LSB
	nseen   uint   // bits shifted in so far (to prime the register)
	run     int    // contiguous raw 1 bits
	raw     []byte // raw frame bits, one per entry
	inFrame bool
}

// FeedByte feeds eight bits, LSB first.
func (d *BitDestuffer) FeedByte(b byte) {
	for i := 0; i < 8; i++ {
		d.FeedBit(b >> uint(i) & 1)
	}
}

// Feed feeds a byte slice.
func (d *BitDestuffer) Feed(p []byte) {
	for _, b := range p {
		d.FeedByte(b)
	}
}

// FeedBit consumes a single raw line bit.
func (d *BitDestuffer) FeedBit(bit byte) {
	d.last8 = d.last8>>1 | bit<<7
	d.nseen++
	if bit == 1 {
		d.run++
		if d.run == 7 && d.inFrame {
			// Abort / idle: discard the frame in progress.
			d.Aborts++
			d.inFrame = false
			d.raw = d.raw[:0]
		}
	} else {
		d.run = 0
	}
	if d.inFrame {
		d.raw = append(d.raw, bit)
	}
	if d.nseen >= 8 && d.last8 == Flag {
		d.flag()
	}
}

// flag handles a raw flag match: the last 8 raw bits are the flag
// itself; everything before them is the frame.
func (d *BitDestuffer) flag() {
	if d.inFrame && len(d.raw) >= 8 {
		if body, ok := destuffBits(d.raw[:len(d.raw)-8]); ok {
			if len(body) > 0 {
				d.Frames = append(d.Frames, body)
			}
		} else {
			d.Damaged++
		}
	}
	d.inFrame = true
	d.raw = d.raw[:0]
	// The shift register keeps running: adjacent flags may share their
	// boundary zero (…0111111 0 1111110…), so clearing it here would
	// blind the hunter to a real flag whose window overlaps a match in
	// preceding noise. No closer re-match exists — the windows 1-6 bits
	// past a flag all start with a 1 — and a shared-zero match leaves
	// fewer than 8 raw bits, which the length guard above drops.
}

// destuffBits removes inserted zeros and packs the residue into octets;
// ok is false when the bit count is not a multiple of 8.
func destuffBits(bits []byte) ([]byte, bool) {
	out := make([]byte, 0, len(bits)/8)
	var cur byte
	var n uint
	run := 0
	for _, b := range bits {
		if run == 5 && b == 0 {
			run = 0
			continue // inserted zero
		}
		if b == 1 {
			run++
		} else {
			run = 0
		}
		cur |= b << n
		n++
		if n == 8 {
			out = append(out, cur)
			cur = 0
			n = 0
		}
	}
	return out, n == 0
}

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
