package transport

import (
	"bytes"
	"testing"
)

func TestWireHeaderRoundTrip(t *testing.T) {
	buf := appendHeader(nil, typeData, 1234, 0xDEADBEEF, 0x0102030405060708, -7, 987654321)
	if len(buf) != headerLen {
		t.Fatalf("header length %d, want %d", len(buf), headerLen)
	}
	h, err := decodeHeader(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Type != typeData || h.Len != 1234 || h.Epoch != 0xDEADBEEF || h.Seq != 0x0102030405060708 {
		t.Fatalf("round trip mismatch: %+v", h)
	}
	if h.Tick != -7 || h.Wall != 987654321 {
		t.Fatalf("tick/wall mismatch: %+v", h)
	}
}

func TestWireHeaderRejections(t *testing.T) {
	good := appendHeader(nil, typeKeepalive, 0, 7, 9, 0, 0)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(b []byte) []byte { return b[:headerLen-1] }, errShortHeader},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, errBadMagic},
		{"version", func(b []byte) []byte { b[4] = 99; return b }, errBadVersion},
		{"old-version", func(b []byte) []byte { b[4] = 1; return b }, errBadVersion},
		{"type", func(b []byte) []byte { b[5] = 42; return b }, errBadType},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), good...))
		if _, err := decodeHeader(b); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// A datagram whose declared length overruns the received octets.
	b := appendHeader(nil, typeData, 10, 7, 9, 0, 0)
	b = append(b, 1, 2, 3) // only 3 of the declared 10
	if _, _, err := decodeDatagram(b); err != errBadLength {
		t.Errorf("overrun: got %v, want %v", err, errBadLength)
	}
}

func TestDecodeDatagramPayloadSpan(t *testing.T) {
	payload := []byte("the quick brown fox")
	b := appendHeader(nil, typeData, len(payload), 1, 2, 3, 4)
	b = append(b, payload...)
	h, got, err := decodeDatagram(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Len != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestKeepaliveReplyPayloadRoundTrip(t *testing.T) {
	p := appendKeepaliveReplyPayload(nil, 111, -222, 333)
	if len(p) != keepaliveReplyLen {
		t.Fatalf("payload length %d, want %d", len(p), keepaliveReplyLen)
	}
	t1, t2, t3, err := decodeKeepaliveReply(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if t1 != 111 || t2 != -222 || t3 != 333 {
		t.Fatalf("round trip mismatch: %d %d %d", t1, t2, t3)
	}
	if _, _, _, err := decodeKeepaliveReply(p[:keepaliveReplyLen-1]); err == nil {
		t.Fatal("short reply accepted")
	}
}

func TestFreezePayloadRoundTrip(t *testing.T) {
	p := appendFreezePayload(nil, 0xFEEDBEEF, 42, -99, "transport-los")
	inc, tick, wall, reason, err := decodeFreeze(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if inc != 0xFEEDBEEF || tick != 42 || wall != -99 || reason != "transport-los" {
		t.Fatalf("round trip mismatch: %x %d %d %q", inc, tick, wall, reason)
	}
	// Oversized reasons are truncated to the wire cap, not rejected.
	p = appendFreezePayload(nil, 1, 0, 0, "a-very-long-capture-reason-that-overflows")
	if _, _, _, reason, err = decodeFreeze(p); err != nil || len(reason) != freezeReasonMax {
		t.Fatalf("truncation: reason %q err %v", reason, err)
	}
	if _, _, _, _, err := decodeFreeze(p[:10]); err == nil {
		t.Fatal("short freeze accepted")
	}
}

// FuzzWireHeader fuzzes the UDP wire codec: no input may panic, and any
// input that decodes must re-encode to an identical header.
func FuzzWireHeader(f *testing.F) {
	f.Add(appendHeader(nil, typeData, 5, 0xABCD, 42, 17, 1234567))
	f.Add(appendHeader(nil, typeKeepalive, 0, 1, 1, 0, 0))
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x35, 0x4C, 0x54})
	f.Fuzz(func(t *testing.T, p []byte) {
		h, payload, err := decodeDatagram(p)
		if err != nil {
			return
		}
		if h.Len != len(payload) {
			t.Fatalf("declared %d octets, span %d", h.Len, len(payload))
		}
		re := appendHeader(nil, h.Type, h.Len, h.Epoch, h.Seq, h.Tick, h.Wall)
		if !bytes.Equal(re, p[:headerLen]) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", p[:headerLen], re)
		}
	})
}
