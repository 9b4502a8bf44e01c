package lqm

import (
	"testing"
	"testing/quick"
)

func TestLQRMarshalRoundTrip(t *testing.T) {
	f := func(vals [12]uint32) bool {
		q := LQR{
			Magic:          vals[0],
			LastOutLQRs:    vals[1],
			LastOutPackets: vals[2],
			LastOutOctets:  vals[3],
			PeerInLQRs:     vals[4],
			PeerInPackets:  vals[5],
			PeerInDiscards: vals[6],
			PeerInErrors:   vals[7],
			PeerInOctets:   vals[8],
			PeerOutLQRs:    vals[9],
			PeerOutPackets: vals[10],
			PeerOutOctets:  vals[11],
		}
		b := q.Marshal(nil)
		if len(b) != Size {
			return false
		}
		got, ok := Parse(b)
		return ok && got == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseShort(t *testing.T) {
	if _, ok := Parse(make([]byte, Size-1)); ok {
		t.Error("short LQR accepted")
	}
}

func TestQualityString(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" || Unknown.String() != "unknown" {
		t.Error("strings")
	}
}

// pair wires two monitors over a lossy "line" whose loss applies to the
// data traffic model, not the reports.
type pair struct {
	a, b *Monitor
}

func newPair() *pair {
	p := &pair{}
	p.a = &Monitor{Magic: 1, Period: 10, Send: func(q *LQR) { p.b.Receive(q) }}
	p.b = &Monitor{Magic: 2, Period: 10, Send: func(q *LQR) { p.a.Receive(q) }}
	return p
}

// window simulates one reporting period: a sends n packets toward b,
// of which delivered actually arrive, then both report.
func (p *pair) window(now int64, n, delivered int) {
	for i := 0; i < n; i++ {
		p.a.CountOutPacket(100)
	}
	for i := 0; i < delivered; i++ {
		p.b.CountInPacket(100)
	}
	for i := 0; i < n-delivered; i++ {
		p.b.CountInError()
	}
	p.a.Advance(now)
	p.b.Advance(now)
}

func TestCleanLinkBecomesGood(t *testing.T) {
	p := newPair()
	now := int64(0)
	for w := 0; w < 6; w++ {
		now += 10
		p.window(now, 50, 50)
	}
	if p.b.Quality() != Good {
		t.Errorf("b quality = %v after clean windows", p.b.Quality())
	}
	if p.b.LastInboundLossPct != 0 {
		t.Errorf("loss = %v, want 0", p.b.LastInboundLossPct)
	}
}

func TestLossyLinkGoesBad(t *testing.T) {
	p := newPair()
	now := int64(0)
	// Two clean windows to establish a baseline, then heavy loss.
	for w := 0; w < 4; w++ {
		now += 10
		p.window(now, 50, 50)
	}
	for w := 0; w < 3; w++ {
		now += 10
		p.window(now, 50, 20) // 60% loss
	}
	if p.b.Quality() != Bad {
		t.Fatalf("b quality = %v after 60%% loss", p.b.Quality())
	}
	if p.b.LastInboundLossPct < 50 {
		t.Errorf("measured loss = %.0f%%, want ≈60%%", p.b.LastInboundLossPct)
	}
	// b's CountInError tallies travel inside b's reports, so the error
	// deltas are observed by a.
	if p.a.LastPeerErrors == 0 {
		t.Error("peer error counter delta not observed")
	}
}

func TestHysteresisRecovery(t *testing.T) {
	p := newPair()
	now := int64(0)
	for w := 0; w < 3; w++ {
		now += 10
		p.window(now, 50, 50)
	}
	now += 10
	p.window(now, 50, 10) // bad window
	if p.b.Quality() != Bad {
		t.Fatal("did not go bad")
	}
	// One clean window is not enough…
	now += 10
	p.window(now, 50, 50)
	if p.b.Quality() == Good {
		t.Fatal("recovered too eagerly")
	}
	// …three are.
	for w := 0; w < 2; w++ {
		now += 10
		p.window(now, 50, 50)
	}
	if p.b.Quality() != Good {
		t.Errorf("quality = %v after recovery windows", p.b.Quality())
	}
}

func TestIdleWindowsGiveNoVerdict(t *testing.T) {
	p := newPair()
	now := int64(0)
	for w := 0; w < 5; w++ {
		now += 10
		p.window(now, 0, 0)
	}
	if p.b.Quality() != Unknown {
		t.Errorf("quality = %v on idle link", p.b.Quality())
	}
}

func TestReportCadence(t *testing.T) {
	var reports int
	m := &Monitor{Magic: 1, Period: 10, Send: func(*LQR) { reports++ }}
	for now := int64(1); now <= 100; now++ {
		m.Advance(now)
	}
	// First Advance arms the timer; then one report per period.
	if reports < 8 || reports > 10 {
		t.Errorf("reports = %d over 10 periods", reports)
	}
	if m.OutLQRs != uint32(reports) {
		t.Error("OutLQRs mismatch")
	}
}

func TestLastEchoFields(t *testing.T) {
	// Our outgoing report must echo the peer's latest counters so the
	// peer can align windows (RFC 1333 §2.3).
	var got *LQR
	m := &Monitor{Magic: 7, Period: 10, Send: func(q *LQR) { got = q }}
	m.Receive(&LQR{PeerOutLQRs: 5, PeerOutPackets: 111, PeerOutOctets: 999})
	m.Advance(1)
	m.Advance(20)
	if got == nil {
		t.Fatal("no report emitted")
	}
	if got.LastOutLQRs != 5 || got.LastOutPackets != 111 || got.LastOutOctets != 999 {
		t.Errorf("echo fields = %+v", got)
	}
	if got.Magic != 7 {
		t.Error("magic")
	}
}

func TestRTTSampling(t *testing.T) {
	// Two monitors with equal periods: the peer's echo of our sequence
	// number arrives one reporting period behind, so the emit ring (not
	// just the latest emit) must be searched for the match.
	var toB, toA []*LQR
	a := &Monitor{Magic: 1, Period: 10, Send: func(q *LQR) { toB = append(toB, q) }}
	b := &Monitor{Magic: 2, Period: 10, Send: func(q *LQR) { toA = append(toA, q) }}
	for now := int64(1); now <= 80; now++ {
		// Deliver last tick's traffic first: one tick of line delay
		// in each direction.
		inB, inA := toB, toA
		toB, toA = nil, nil
		for _, q := range inB {
			b.Receive(q)
		}
		for _, q := range inA {
			a.Receive(q)
		}
		a.Advance(now)
		b.Advance(now)
	}
	if a.RTTSamples == 0 {
		t.Fatal("no RTT samples completed")
	}
	// One tick out, up to a full period parked at the peer, one tick back.
	if a.LastRTT < 2 || a.LastRTT > 12 {
		t.Errorf("LastRTT = %d, want within [2, 12]", a.LastRTT)
	}
}
