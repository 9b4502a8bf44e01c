package netsim

import (
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).next() == NewRand(2).next() {
		t.Error("different seeds identical")
	}
	// Seed zero must not wedge the generator.
	z := NewRand(0)
	if z.next() == 0 && z.next() == 0 {
		t.Error("zero seed produced zeros")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Error("Intn on non-positive n")
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// Example from RFC 1071 §3: the checksum of this sequence.
	data := []byte{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7}
	if got := checksum(data); got != ^uint16(0xDDF2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xDDF2))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := func(totalLen, id uint16, ttl, proto byte, src, dst [4]byte) bool {
		if totalLen < headerLen {
			totalLen = headerLen
		}
		h := IPv4Header{TotalLen: totalLen, ID: id, TTL: ttl, Protocol: proto, Src: src, Dst: dst}
		b := h.marshal(nil)
		// pad to TotalLen so the length check passes
		for len(b) < int(totalLen) {
			b = append(b, 0)
		}
		got, ok := ParseIPv4(b)
		return ok && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsCorruptHeader(t *testing.T) {
	h := IPv4Header{TotalLen: 40, TTL: 64, Protocol: protoUDP}
	b := h.marshal(nil)
	b = append(b, make([]byte, 20)...)
	b[8] ^= 0x01 // TTL flip breaks the checksum
	if _, ok := ParseIPv4(b); ok {
		t.Error("corrupt header accepted")
	}
	if _, ok := ParseIPv4([]byte{1, 2, 3}); ok {
		t.Error("short slice accepted")
	}
}

func TestIMIXDistribution(t *testing.T) {
	r := NewRand(1)
	var mix IMIX
	counts := map[int]int{}
	const n = 12000
	for i := 0; i < n; i++ {
		counts[mix.Next(r)]++
	}
	if len(counts) != 3 {
		t.Fatalf("IMIX produced sizes %v", counts)
	}
	// Expect roughly 7:4:1.
	if counts[40] < 6000 || counts[40] > 8000 {
		t.Errorf("40 B count = %d", counts[40])
	}
	if counts[576] < 3200 || counts[576] > 4800 {
		t.Errorf("576 B count = %d", counts[576])
	}
	if counts[1500] < 600 || counts[1500] > 1400 {
		t.Errorf("1500 B count = %d", counts[1500])
	}
}

func TestSizeDists(t *testing.T) {
	r := NewRand(1)
	if Fixed(10).Next(r) != headerLen {
		t.Error("Fixed below header size must clamp")
	}
	if Fixed(100).Next(r) != 100 {
		t.Error("Fixed size")
	}
	u := Uniform{Min: 50, Max: 60}
	for i := 0; i < 100; i++ {
		if v := u.Next(r); v < 50 || v > 60 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	if (Uniform{Min: 5, Max: 3}).Next(r) != headerLen {
		t.Error("degenerate uniform")
	}
}

func TestGenProducesValidDatagrams(t *testing.T) {
	g := NewGen(3, IMIX{}, 0.1)
	for i := 0; i < 200; i++ {
		d := g.Next()
		h, ok := ParseIPv4(d)
		if !ok {
			t.Fatalf("datagram %d: invalid header", i)
		}
		if int(h.TotalLen) != len(d) {
			t.Fatalf("datagram %d: TotalLen %d != len %d", i, h.TotalLen, len(d))
		}
	}
}

func TestGenEscapeDensity(t *testing.T) {
	for _, density := range []float64{0, 0.25, 1.0} {
		g := NewGen(9, Fixed(1500), density)
		esc, total := 0, 0
		for i := 0; i < 50; i++ {
			d := g.Next()
			for _, b := range d[headerLen:] {
				total++
				if b == 0x7E || b == 0x7D {
					esc++
				}
			}
		}
		got := float64(esc) / float64(total)
		if got < density-0.03 || got > density+0.03 {
			t.Errorf("density %v: measured %v", density, got)
		}
	}
}

func TestBurstTotals(t *testing.T) {
	g := NewGen(5, Fixed(100), 0)
	ds := g.Burst(950)
	total := 0
	for _, d := range ds {
		total += len(d)
	}
	if total < 950 || len(ds) != 10 {
		t.Errorf("burst: %d datagrams, %d octets", len(ds), total)
	}
}
