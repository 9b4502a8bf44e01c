package fault

import (
	"bytes"
	"testing"
)

func feed(in *Injector, p []byte, chunk int) []byte {
	var out []byte
	for len(p) > 0 {
		n := chunk
		if n > len(p) {
			n = len(p)
		}
		out = append(out, in.Apply(p[:n])...)
		p = p[n:]
	}
	return out
}

func seq(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i + 1) // never zero, so LOS zeros are distinguishable
	}
	return p
}

func TestInsertAndDeleteSlips(t *testing.T) {
	var s Script
	s.Insert(5, 0xAA, 0xBB)
	s.Delete(10, 3)
	in := NewInjector(s)
	got := feed(in, seq(20), 7)
	want := append([]byte{}, seq(20)[:5]...)
	want = append(want, 0xAA, 0xBB)
	want = append(want, seq(20)[5:10]...)
	want = append(want, seq(20)[13:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x\nwant % x", got, want)
	}
	if in.Stats.Inserted != 2 || in.Stats.Deleted != 3 {
		t.Errorf("stats = %+v", in.Stats)
	}
}

func TestLOSWindowZerosTheLine(t *testing.T) {
	var s Script
	s.LOS(4, 6)
	in := NewInjector(s)
	got := feed(in, seq(16), 3)
	if len(got) != 16 {
		t.Fatalf("len = %d", len(got))
	}
	for i, b := range got {
		dead := i >= 4 && i < 10
		if dead && b != 0 {
			t.Errorf("octet %d = %#x inside LOS window", i, b)
		}
		if !dead && b == 0 {
			t.Errorf("octet %d zeroed outside LOS window", i)
		}
	}
	if in.Stats.LOSOctets != 6 {
		t.Errorf("stats = %+v", in.Stats)
	}
}

func TestDuplicateReplaysHistory(t *testing.T) {
	var s Script
	s.Duplicate(8, 4)
	in := NewInjector(s)
	got := feed(in, seq(12), 5)
	want := append([]byte{}, seq(12)[:8]...)
	want = append(want, seq(12)[4:8]...) // replay of the last 4 delivered
	want = append(want, seq(12)[8:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x\nwant % x", got, want)
	}
	if in.Stats.Duplicated != 4 {
		t.Errorf("stats = %+v", in.Stats)
	}
}

func TestCorruptAndTruncate(t *testing.T) {
	var s Script
	s.Corrupt(2, 2, 0x0F)
	s.Delete(9, 3) // truncate: drop 9..11, up to the next 4-octet boundary
	in := NewInjector(s)
	got := feed(in, seq(12), 12)
	src := seq(12)
	want := []byte{src[0], src[1], src[2] ^ 0x0F, src[3] ^ 0x0F}
	want = append(want, src[4:9]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x\nwant % x", got, want)
	}
}

func TestNoiseWindowDeterministicAndBounded(t *testing.T) {
	run := func(chunk int) ([]byte, Stats) {
		var s Script
		s.Noise(100, 4000, 0.01, 77)
		in := NewInjector(s)
		return feed(in, seq(8000), chunk), in.Stats
	}
	a, sa := run(17)
	b, sb := run(512)
	if !bytes.Equal(a, b) {
		t.Fatal("noise window not deterministic across chunkings")
	}
	if sa.NoiseBits != sb.NoiseBits {
		t.Fatalf("NoiseBits %d vs %d across chunkings", sa.NoiseBits, sb.NoiseBits)
	}
	if sa.NoiseBits == 0 {
		t.Fatal("no bits flipped over a 4000-octet window at BER 1e-2")
	}
	clean := seq(8000)
	for i := range a {
		inside := i >= 100 && i < 4100
		if !inside && a[i] != clean[i] {
			t.Fatalf("octet %d corrupted outside the noise window", i)
		}
	}
}

func TestNoiseSuppressedInsideLOS(t *testing.T) {
	var s Script
	s.Noise(0, 2000, 0.05, 9)
	s.LOS(500, 1000)
	in := NewInjector(s)
	got := feed(in, seq(2000), 64)
	for i := 500; i < 1500; i++ {
		if got[i] != 0 {
			t.Fatalf("octet %d = %#x: noise applied inside the LOS window", i, got[i])
		}
	}
}

func TestDeterminismAcrossChunkings(t *testing.T) {
	src := seq(4096)
	// Slips both ways, two line cuts and two duplications, interleaved
	// the way a scenario's events compile, under noise over the whole
	// stream.
	var script Script
	script.Insert(137, 0xA5).Delete(611, 1).LOS(1300, 100).Duplicate(1770, 16)
	script.Insert(2203, 0x5A).Delete(2890, 1).LOS(3100, 100).Duplicate(3555, 16)
	script.Noise(0, len(src), 1e-3, 7)
	var outs [][]byte
	for _, chunk := range []int{1, 7, 64, 4096} {
		outs = append(outs, feed(NewInjector(script), src, chunk))
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("chunking %d changed the output", i)
		}
	}
}
