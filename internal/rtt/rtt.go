// Package rtt is a line's round-trip estimate (RFC 6298), read and fed by
// every retransmission timer on the line; each keeps its stamp and backoff.
package rtt

// RFC 1661's default restart timer is the floor; the ceiling bounds how
// long a peer that holds its replies back can stall a timer.
const floor, ceiling = 3, 1024

// Estimate is srtt and rttvar in eighths of a tick; zero: no sample yet.
type Estimate struct {
	srtt, rttvar int64
	lit          int64 // the first tick whose sends may be samples
}

// Period is srtt + max(1, 4·rttvar), doubled per backoff expiry, within
// [floor, ceiling].
func (e *Estimate) Period(backoff uint) int64 {
	rto := max((e.srtt+max(8, 4*e.rttvar)+7)>>3, floor)
	return min(rto<<min(backoff, 10), ceiling)
}

// Sample folds in a send at tick sent (< 0: none) answered at now, unless
// the line went dark after it, and reports whether it did.
func (e *Estimate) Sample(sent, now int64) bool {
	if sent < e.lit {
		return false
	}
	if r := (now - sent) << 3; e.srtt == 0 { // zero-tick first samples leave no trace
		e.srtt, e.rttvar = r, r/2
	} else {
		d := r - e.srtt
		e.srtt += d >> 3
		e.rttvar += (max(d, -d) - e.rttvar) >> 2
	}
	return true
}

// Dark notes that what was sent up to now went into a line that was not
// up: a reply to it would time the outage (Karn's rule).
func (e *Estimate) Dark(now int64) { e.lit = now + 1 }
