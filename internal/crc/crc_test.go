package crc

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// The FCS-32 polynomial is the same reflected polynomial as stdlib
// crc32.IEEE, so hash/crc32 is an independent oracle.
func stdlibFCS32(p []byte) uint32 {
	return crc32.ChecksumIEEE(p)
}

func TestBitwise32MatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0xFF},
		[]byte("123456789"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0x7E}, 100),
	}
	for _, c := range cases {
		got := Bitwise32(Init32, c) ^ 0xFFFFFFFF
		want := stdlibFCS32(c)
		if got != want {
			t.Errorf("Bitwise32(%q) = %#x, want %#x", c, got, want)
		}
	}
}

// fcs is the on-the-wire FCS field value of p: the register complemented.
func fcs(s Size, p []byte) uint32 { return s.Finish(s.Update(s.Init(), p)) }

func TestKnownVectors16(t *testing.T) {
	// CRC-16/X.25 of "123456789" is 0x906E (complemented register).
	got := uint16(fcs(FCS16Mode, []byte("123456789")))
	if got != 0x906E {
		t.Errorf("FCS16(123456789) = %#x, want 0x906e", got)
	}
}

func TestKnownVectors32(t *testing.T) {
	// CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
	got := fcs(FCS32Mode, []byte("123456789"))
	if got != 0xCBF43926 {
		t.Errorf("FCS32(123456789) = %#x, want 0xcbf43926", got)
	}
}

func TestTableMatchesBitwise(t *testing.T) {
	f := func(p []byte) bool {
		return Table16(Init16, p) == Bitwise16(Init16, p) &&
			Table32(Init32, p) == Bitwise32(Init32, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlicingMatchesTable(t *testing.T) {
	f := func(p []byte) bool {
		return slicing32(Init32, p) == Table32(Init32, p) &&
			slicing16(Init16, p) == Table16(Init16, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlicingArbitraryInit(t *testing.T) {
	f := func(init uint32, p []byte) bool {
		return slicing32(init, p) == Bitwise32(init, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sizes pairs each FCS mode with its bit-serial definition, widened to
// the streaming register.
var sizes = []struct {
	mode    Size
	bitwise func(fcs uint32, p []byte) uint32
	table   func(fcs uint32, p []byte) uint32
}{
	{FCS16Mode,
		func(fcs uint32, p []byte) uint32 { return uint32(Bitwise16(uint16(fcs), p)) },
		func(fcs uint32, p []byte) uint32 { return uint32(Table16(uint16(fcs), p)) }},
	{FCS32Mode, Bitwise32, Table32},
}

// TestUpdateMatchesBitwise holds the production kernel — on amd64 the
// carry-less fold from one 16-octet block and the slicing tables below
// it, elsewhere slicing and hash/crc32's fold from 64 octets — to the
// 1-bit LFSR, once per kernel this host can take: every length to 300,
// every slice alignment a vector load could care about, starting
// registers other than Init (FCS-16's with junk in the upper half the
// fold must ignore), and every way of cutting an input in two, so each
// half lands on either side of each threshold and leaves every tail
// length the fold handles in-register.
func TestUpdateMatchesBitwise(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		backing := make([]byte, 65535+16)
		rng.Read(backing)
		lengths := []int{1500, 4470, 65535}
		for n := 0; n <= 300; n++ {
			lengths = append(lengths, n)
		}
		for _, sz := range sizes {
			inits := []uint32{sz.mode.Init(), 0}
			for _, n := range lengths {
				for align := 0; align < 16; align++ {
					p := backing[align : align+n]
					init := inits[(n+align)%len(inits)]
					if (n+align)%3 == 0 {
						init = rng.Uint32() >> (32 - 8*uint(sz.mode.Bytes()))
					}
					if (n+align)%5 == 0 && sz.mode == FCS16Mode {
						init |= 0xA5A50000
					}
					if got, want := sz.mode.Update(init, p), sz.bitwise(init, p); got != want {
						t.Fatalf("%v: Update(%#x, %d octets at +%d) = %#x, bitwise %#x", sz.mode, init, n, align, got, want)
					}
				}
			}
			for _, n := range []int{127, 128, 129, 160, 300} {
				p := backing[3 : 3+n]
				init := rng.Uint32() >> (32 - 8*uint(sz.mode.Bytes()))
				want := sz.bitwise(init, p)
				for cut := 0; cut <= n; cut++ {
					if got := sz.mode.Update(sz.mode.Update(init, p[:cut]), p[cut:]); got != want {
						t.Fatalf("%v: %d octets cut at %d = %#x, bitwise %#x", sz.mode, n, cut, got, want)
					}
				}
			}
		}
	})
}

// TestOneKernelPerSize pins that the named helpers are views of
// Size.Update: same field value, same verdict, at lengths on both sides
// of every threshold, once per kernel.
func TestOneKernelPerSize(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, n := range []int{0, 1, 15, 16, 17, 40, 63, 64, 65, 1500} {
			p := make([]byte, n)
			rng.Read(p)
			if got, want := uint16(fcs(FCS16Mode, p)), ^Bitwise16(Init16, p); got != want {
				t.Errorf("FCS16(%d octets) = %#x, bitwise %#x", n, got, want)
			}
			if got, want := fcs(FCS32Mode, p), ^Bitwise32(Init32, p); got != want {
				t.Errorf("FCS32(%d octets) = %#x, bitwise %#x", n, got, want)
			}
			for _, s := range []Size{FCS16Mode, FCS32Mode} {
				sealed := s.Append(bytes.Clone(p))
				if !s.Check(sealed) {
					t.Errorf("%v: %d octets sealed by Append fail Check", s, n)
				}
				sealed[n/2] ^= 0x10
				if s.Check(sealed) {
					t.Errorf("%v: %d octets pass Check with a bit flipped", s, n)
				}
			}
		}
	})
}

// FuzzUpdateSplit: folding an input in two pieces through the
// production kernel, from any starting register, equals the Sarwate
// table over the whole — wherever the cut puts each piece relative to
// the block, the four-block stride and the tail the fold handles
// in-register.
func FuzzUpdateSplit(f *testing.F) {
	f.Add([]byte("123456789"), uint32(Init32), 4)
	f.Add(bytes.Repeat([]byte{0x7E, 0x7D, 0x00, 0xFF}, 40), uint32(0), 64)
	f.Add(bytes.Repeat([]byte{0xA5}, 129), uint32(0xDEADBEEF), 65)
	f.Add(bytes.Repeat([]byte{0x11}, 1500), uint32(1), 63)
	for _, cut := range []int{15, 16, 31, 32, 47, 48, 63, 64, 79} {
		f.Add(bytes.Repeat([]byte{0x5A, 0x7E, 0xC3}, 53), uint32(0x1234567), cut)
	}
	f.Fuzz(func(t *testing.T, data []byte, init uint32, cut int) {
		if cut < 0 {
			cut = -(cut + 1) // -cut overflows at MinInt
		}
		cut %= len(data) + 1
		for _, sz := range sizes {
			init := init >> (32 - 8*uint(sz.mode.Bytes()))
			got := sz.mode.Update(sz.mode.Update(init, data[:cut]), data[cut:])
			if want := sz.table(init, data); got != want {
				t.Fatalf("%v: Update from %#x over %d octets cut at %d = %#x, table %#x", sz.mode, init, len(data), cut, got, want)
			}
		}
	})
}

func TestParallel32MatchesReference(t *testing.T) {
	for _, w := range []int{1, 4, 8, 16, 32, 64} {
		p := NewParallel32(w)
		f := func(init uint32, buf []byte) bool {
			return p.Update(init, buf) == Bitwise32(init, buf)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestParallel16MatchesReference(t *testing.T) {
	for _, w := range []int{8, 16, 32} {
		p := NewParallel16(w)
		f := func(init uint16, buf []byte) bool {
			return p.Update(init, buf) == Bitwise16(init, buf)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestParallelStepSingleWord(t *testing.T) {
	// One Step of the 32-bit engine must equal four Sarwate byte steps —
	// the paper's single-clock-cycle claim for the 32x32 matrix.
	p := NewParallel32(32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		fcs := rng.Uint32()
		var buf [4]byte
		rng.Read(buf[:])
		word := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
		got := p.Step(fcs, word)
		want := Table32(fcs, buf[:])
		if got != want {
			t.Fatalf("Step(%#x, % x) = %#x, want %#x", fcs, buf, got, want)
		}
	}
}

// compose returns the engine equivalent to running p twice per step,
// i.e. a 2W-bit-per-step engine, computed by matrix composition:
// M2 = M·M, D2 = [M·D | D]. Used to verify the matrix algebra (an 8-bit
// engine composed twice must equal the directly-built 16-bit engine).
func compose(p *Parallel32) *Parallel32 {
	if p.w*2 > 64 {
		panic("crc: composed width exceeds 64 bits")
	}
	q := &Parallel32{w: p.w * 2}
	q.mstate.Cols = make([]uint32, 32)
	for i := 0; i < 32; i++ {
		q.mstate.Cols[i] = p.mstate.apply(p.mstate.Cols[i])
	}
	q.mdata.Cols = make([]uint32, q.w)
	// First (earlier) w data bits pass through the second application of
	// Mstate; the last w bits are injected directly.
	for j := 0; j < p.w; j++ {
		q.mdata.Cols[j] = p.mstate.apply(p.mdata.Cols[j])
		q.mdata.Cols[p.w+j] = p.mdata.Cols[j]
	}
	q.buildTables()
	return q
}

func TestComposeMatchesDirect(t *testing.T) {
	// 8-bit engine composed = 16-bit engine; 16 composed = 32.
	e8 := NewParallel32(8)
	e16 := NewParallel32(16)
	e32 := NewParallel32(32)
	c16 := compose(e8)
	c32 := compose(c16)
	for i := range e16.mstate.Cols {
		if e16.mstate.Cols[i] != c16.mstate.Cols[i] {
			t.Fatalf("composed 16-bit Mstate col %d differs", i)
		}
		if e32.mstate.Cols[i] != c32.mstate.Cols[i] {
			t.Fatalf("composed 32-bit Mstate col %d differs", i)
		}
	}
	for j := range e16.mdata.Cols {
		if e16.mdata.Cols[j] != c16.mdata.Cols[j] {
			t.Fatalf("composed 16-bit Mdata col %d differs", j)
		}
	}
	for j := range e32.mdata.Cols {
		if e32.mdata.Cols[j] != c32.mdata.Cols[j] {
			t.Fatalf("composed 32-bit Mdata col %d differs", j)
		}
	}
}

// apply multiplies the matrix by the input vector v (bit i of v selects
// Cols[i]).
func (m Matrix32) apply(v uint32) uint32 {
	var out uint32
	for i, c := range m.Cols {
		if v>>uint(i)&1 != 0 {
			out ^= c
		}
	}
	return out
}

// apply16 is Matrix32.apply for the 16-bit engine's bare column slices.
func apply16(cols []uint16, v uint64) uint16 {
	var out uint16
	for i, c := range cols {
		if v>>uint(i)&1 != 0 {
			out ^= c
		}
	}
	return out
}

func TestTablesAreTheMatrix(t *testing.T) {
	// Step's byte-sliced tables must be the same linear map as the
	// matrices they were derived from — for every width the
	// constructors accept, and
	// with garbage above the width in the data word, which the matrix
	// has no column for and Step must ignore.
	rng := rand.New(rand.NewSource(15))
	for _, w := range []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64} {
		p32, p16 := NewParallel32(w), NewParallel16(w)
		low := ^uint64(0) >> uint(64-w)
		for i := 0; i < 10000; i++ {
			state, data := rng.Uint32(), rng.Uint64()
			if i%2 == 0 {
				data &= low
			}
			// Matrix32.apply takes a 32-bit vector: wider data words go
			// through it half by half.
			lo := Matrix32{p32.mdata.Cols[:min(w, 32)]}
			want32 := p32.mstate.apply(state) ^ lo.apply(uint32(data))
			if w > 32 {
				want32 ^= Matrix32{p32.mdata.Cols[32:]}.apply(uint32(data >> 32))
			}
			if got := p32.Step(state, data); got != want32 {
				t.Fatalf("Parallel32(%d).Step(%#x, %#x) = %#x, matrix says %#x", w, state, data, got, want32)
			}
			want16 := apply16(p16.mstate, uint64(state&0xFFFF)) ^ apply16(p16.mdata, data)
			if got := p16.Step(uint16(state), data); got != want16 {
				t.Fatalf("Parallel16(%d).Step(%#x, %#x) = %#x, matrix says %#x", w, state, data, got, want16)
			}
		}
		f := func(i32 uint32, i16 uint16, buf []byte) bool {
			return p32.Update(i32, buf) == Table32(i32, buf) && p16.Update(i16, buf) == Table16(i16, buf)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("width %d: Update vs Sarwate table: %v", w, err)
		}
	}
}

func TestComposedTablesMatchDirect(t *testing.T) {
	// Compose builds its matrices by algebra, not by probing the LFSR;
	// its tables must still agree with the directly built engine through
	// both evaluations.
	direct, composed := NewParallel32(16), compose(NewParallel32(8))
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		state, data := rng.Uint32(), rng.Uint64()
		want := direct.Step(state, data)
		if got := composed.Step(state, data); got != want {
			t.Fatalf("composed Step(%#x, %#x) = %#x, direct %#x", state, data, got, want)
		}
		viaMatrix := composed.mstate.apply(state) ^ composed.mdata.apply(uint32(data))
		if viaMatrix != want {
			t.Fatalf("composed matrices (%#x, %#x) = %#x, direct Step %#x", state, data, viaMatrix, want)
		}
	}
}

func TestMatrixRowColumnDuality(t *testing.T) {
	p := NewParallel32(32)
	m := p.DataMatrix()
	for r := 0; r < 32; r++ {
		row := m.Row(r)
		for i, c := range m.Cols {
			inRow := row>>uint(i)&1 != 0
			inCol := c>>uint(r)&1 != 0
			if inRow != inCol {
				t.Fatalf("row/col mismatch at r=%d i=%d", r, i)
			}
		}
	}
}

func TestCheckRoundTrip(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		f := func(p []byte) bool {
			ok16 := FCS16Mode.Check(FCS16Mode.Append(append([]byte(nil), p...)))
			ok32 := FCS32Mode.Check(FCS32Mode.Append(append([]byte(nil), p...)))
			return ok16 && ok32
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestCheckDetectsCorruption(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			p := make([]byte, 4+rng.Intn(64))
			rng.Read(p)
			framed := FCS32Mode.Append(append([]byte(nil), p...))
			pos := rng.Intn(len(framed))
			bit := byte(1) << uint(rng.Intn(8))
			framed[pos] ^= bit
			if FCS32Mode.Check(framed) {
				t.Fatalf("single-bit corruption at %d undetected", pos)
			}
		}
	})
}

func TestCheckRejectsShort(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		if FCS16Mode.Check([]byte{0x01}) || FCS32Mode.Check([]byte{0x01, 0x02, 0x03}) {
			t.Error("short frames must fail FCS check")
		}
	})
}

func TestLinearity(t *testing.T) {
	// CRC over XORed messages: crc(a^b) ^ crc(a) ^ crc(b) == crc(0^0...)
	// for equal lengths with zero init — the defining property the matrix
	// engine relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := make([]byte, n)
		b := make([]byte, n)
		x := make([]byte, n)
		z := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		for i := range a {
			x[i] = a[i] ^ b[i]
		}
		return Table32(0, x) == Table32(0, a)^Table32(0, b)^Table32(0, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFCSSizeModes(t *testing.T) {
	p := []byte{1, 2, 3, 4, 5}
	for _, s := range []Size{FCS16Mode, FCS32Mode} {
		out := s.Append(append([]byte(nil), p...))
		if len(out) != len(p)+s.Bytes() {
			t.Fatalf("%v: appended %d bytes, want %d", s, len(out)-len(p), s.Bytes())
		}
		if !s.Check(out) {
			t.Fatalf("%v: round trip failed", s)
		}
	}
	if FCS16Mode.String() != "FCS-16" || FCS32Mode.String() != "FCS-32" {
		t.Error("Size.String mismatch")
	}
}

func TestParallelWidthPanics(t *testing.T) {
	for _, f := range []func(){func() { NewParallel32(0) }, func() { NewParallel32(65) },
		func() { NewParallel16(0) }, func() { NewParallel16(65) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range width")
				}
			}()
			f()
		}()
	}
	p := NewParallel32(32)
	p = compose(p) // 64 is fine
	defer func() {
		if recover() == nil {
			t.Error("expected panic composing past 64 bits")
		}
	}()
	compose(p)
}

func BenchmarkTable32(b *testing.B) {
	buf := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		Table32(Init32, buf)
	}
}

func BenchmarkSlicing32(b *testing.B) {
	buf := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		slicing32(Init32, buf)
	}
}

func BenchmarkParallel32x32(b *testing.B) {
	p := NewParallel32(32)
	buf := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		p.Update(Init32, buf)
	}
}

// BenchmarkFCSUpdate prices the production kernel of each size across
// the frame sizes of the ladder, 256 frames laid end to end per op, on
// every kernel this host can take: the carry-less fold engages at one
// block (16 octets) and strides four blocks from 64.
func BenchmarkFCSUpdate(b *testing.B) {
	const frames = 256
	for _, k := range kernels() {
		for _, s := range []Size{FCS32Mode, FCS16Mode} {
			for _, size := range []int{16, 32, 40, 48, 64, 128, 576, 1500} {
				b.Run(fmt.Sprintf("%s/%v/size=%d", k, s, size), func(b *testing.B) {
					defer useKernel(k)()
					buf := make([]byte, frames*size)
					rand.New(rand.NewSource(1)).Read(buf)
					b.SetBytes(int64(len(buf)))
					b.ReportAllocs()
					b.ResetTimer()
					var sink uint32
					for i := 0; i < b.N; i++ {
						for off := 0; off < len(buf); off += size {
							sink += s.Update(s.Init(), buf[off:off+size])
						}
					}
					benchSink = sink
				})
			}
		}
	}
}

// eachKernel runs f once per kernel Update can take on this host, as
// a subtest named after it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range kernels() {
		t.Run(k, func(t *testing.T) {
			defer useKernel(k)()
			f(t)
		})
	}
}

var benchSink uint32
