package fault

import (
	"bytes"
	"testing"
)

// TestPairIndependentLines: each line of a protected pair runs its own
// script with independent positions and stats.
func TestPairIndependentLines(t *testing.T) {
	var w, p Script
	w.LOS(10, 20)
	p.Corrupt(5, 4, 0x0F)
	pair := NewPair(w, p)

	in := make([]byte, 40)
	for i := range in {
		in[i] = byte(i + 1)
	}
	outW := pair.Apply(0, in)
	outP := pair.Apply(1, in)

	if !bytes.Equal(outW[:10], in[:10]) || !bytes.Equal(outW[30:], in[30:]) {
		t.Error("working line damaged outside the LOS window")
	}
	for i := 10; i < 30; i++ {
		if outW[i] != 0 {
			t.Fatalf("working[%d] = %#x inside LOS window", i, outW[i])
		}
	}
	for i, b := range outP {
		want := in[i]
		if i >= 5 && i < 9 {
			want ^= 0x0F
		}
		if b != want {
			t.Fatalf("protect[%d] = %#x, want %#x", i, b, want)
		}
	}
	if pair.Working.Stats.LOSOctets != 20 || pair.Protect.Stats.LOSOctets != 0 {
		t.Errorf("stats crossed lines: w=%+v p=%+v", pair.Working.Stats, pair.Protect.Stats)
	}
	if !pair.Working.Done() || !pair.Protect.Done() {
		t.Error("both scripts fired but Done is false")
	}
	var c Script
	c.Corrupt(0, 1, 0xFF)
	if got := NewPair(Script{}, c).Apply(3, []byte{0}); got[0] != 0xFF {
		t.Error("line 3 did not select the protect line")
	}
}
