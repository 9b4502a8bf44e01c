package rtt

import "testing"

// TestRestartTimerEstimator pins the measured timer: the RFC default
// before any sample and its floor after, doubling per expiry,
// srtt + 4·rttvar from the samples, the cap at any backoff, and no
// sample from a send that went into a dark line or from no send.
func TestRestartTimerEstimator(t *testing.T) {
	var e Estimate
	want := func(what string, backoff uint, period int64) {
		t.Helper()
		if got := e.Period(backoff); got != period {
			t.Fatalf("%s: Period(%d) = %d, want %d", what, backoff, got, period)
		}
	}
	want("cold", 0, floor)
	for i, p := range []int64{6, 12, 24, 48, 96} {
		want("unanswered request", uint(i+1), p)
	}
	if !e.Sample(100, 140) { // first sample: srtt 40, rttvar 20
		t.Fatal("a 40-tick round trip was not sampled")
	}
	want("after a 40-tick sample", 0, 40+4*20)
	for i, p := range []int64{240, 480, 960, ceiling, ceiling} {
		want("backoff from the estimate", uint(i+1), p)
	}
	want("a backoff past the shift width", 200, ceiling)
	e.Sample(200, 1200) // srtt 160, rttvar 255: 1180 ticks
	want("after a 1000-tick sample", 0, ceiling)

	// A line faster than the RFC default: one-tick samples drive
	// rttvar to zero and srtt + 1 to 2 ticks, under the floor.
	e = Estimate{}
	for now := int64(1); now <= 8; now++ {
		e.Sample(now-1, now)
	}
	if e.srtt != 8 || e.rttvar != 0 {
		t.Fatalf("after one-tick samples: srtt %d/8, rttvar %d/8; want 8/8 and 0", e.srtt, e.rttvar)
	}
	want("floor", 0, floor)

	// Karn's rule for a dark line: nothing sent up to the dark tick is
	// sampled, however long its reply took; later sends are.
	e = Estimate{}
	e.Dark(150)
	for _, sent := range []int64{-1, 0, 150} {
		if e.Sample(sent, 152) {
			t.Fatalf("send at tick %d sampled across the dark line", sent)
		}
	}
	want("after dark replies", 0, floor)
	if !e.Sample(151, 153) {
		t.Fatal("a send after the line lit was not sampled")
	}
	want("after a 2-tick sample", 0, 2+4*1)
}
