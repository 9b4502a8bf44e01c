package gigapos

import (
	"bytes"
	"testing"

	"repro/internal/aps"
	"repro/internal/telemetry"
)

// protectedPair wires two Links full duplex over a 1+1 protected pair:
// each end's TransportPort drives its aps.Protected line, both
// directions ride a working+protect section pair, one frame per
// direction per tick (1 tick = one 125 µs frame time, so the GR-253
// 50 ms switch budget is 400 ticks).
type protectedPair struct {
	a, b   *TransportPort
	la, lb *aps.Protected // the ends' lines
	now    int64
}

func newProtectedPair(t *testing.T) *protectedPair {
	t.Helper()
	cfg := LinkConfig{
		EchoPeriod: 8, Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Magic, cfgA.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	cfgB.Magic, cfgB.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	la, lb := aps.NewProtectedPair()
	p := &protectedPair{a: NewTransportPort(NewLink(cfgA), la), b: NewTransportPort(NewLink(cfgB), lb), la: la, lb: lb}
	for _, l := range []*Link{p.a.Link, p.b.Link} {
		l.Open()
		l.Up()
	}
	return p
}

// impair sets what transforms the a→b frames of one line in transit
// (nil passes them through); b→a stays clean in these scenarios.
func (p *protectedPair) impair(line aps.Line, fn func([]byte) []byte) {
	p.la.Line(line).Inject = fn
}

func (p *protectedPair) tick() {
	p.now++
	p.a.Tick(p.now)
	p.b.Tick(p.now)
}

// zeroFrame replaces a frame with a dead line — a full-frame LOS cut.
func zeroFrame(f []byte) []byte { return make([]byte, len(f)) }

// TestProtectionHitlessFailover is the acceptance scenario: cut the
// working line under live traffic and require (1) the APS switch
// completes and delivery resumes within the 400-tick (50 ms) GR-253
// budget, (2) LCP and IPCP never renegotiate — the session layer is
// blind to the failure, (3) no delivered datagram is corrupted, and
// (4) the revertive group returns to the working line after
// wait-to-restore without any of the above regressing.
func TestProtectionHitlessFailover(t *testing.T) {
	const wtr = 100
	p := newProtectedPair(t)
	a, b, la, lb := p.a.Link, p.b.Link, p.la, p.lb

	for i := 0; i < 30; i++ {
		p.tick()
	}
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean pair")
	}

	// Sequenced traffic a→b: one datagram per tick, payload fully
	// deterministic so any delivered corruption is detectable.
	var seq uint32
	sent := map[uint32][]byte{}
	send := func() {
		seq++
		pl := make([]byte, 40)
		pl[0] = 0x45
		pl[4], pl[5], pl[6], pl[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		for i := 8; i < len(pl); i++ {
			pl[i] = byte(seq) ^ byte(i)*7
		}
		sent[seq] = pl
		if err := a.SendIPv4(pl); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	var delivered, corrupted int
	var lastDeliveredAt int64
	var maxGap int64
	drain := func() {
		for _, d := range b.Received() {
			if len(d.Payload) < 8 {
				corrupted++
				continue
			}
			s := uint32(d.Payload[4])<<24 | uint32(d.Payload[5])<<16 |
				uint32(d.Payload[6])<<8 | uint32(d.Payload[7])
			want, ok := sent[s]
			if !ok || !bytes.Equal(d.Payload, want) {
				corrupted++
				continue
			}
			delivered++
			if lastDeliveredAt != 0 && p.now-lastDeliveredAt > maxGap {
				maxGap = p.now - lastDeliveredAt
			}
			lastDeliveredAt = p.now
		}
	}
	step := func() {
		send()
		p.tick()
		drain()
		if !b.Opened() || !b.IPReady() {
			t.Fatalf("session dropped at tick %d: lcp-open=%v ipcp-open=%v",
				p.now, b.Opened(), b.IPReady())
		}
	}

	for i := 0; i < 50; i++ {
		step()
	}

	// Cut the working line for 200 frame times.
	failAt := p.now
	p.impair(aps.Working, zeroFrame)
	for i := 0; i < 200; i++ {
		step()
	}
	if lb.Ctrl.Active() != aps.Protect {
		t.Fatalf("selector still on working %d ticks into the cut", p.now-failAt)
	}
	if lb.Ctrl.ToProtect != 1 {
		t.Errorf("ToProtect = %d, want 1", lb.Ctrl.ToProtect)
	}
	if took := lb.Ctrl.LastSwitchTook; took > 400 {
		t.Errorf("switch took %d ticks, exceeds the 400-tick (50 ms) budget", took)
	}
	// The far end follows on the K1 request alone (bidirectional).
	if la.Ctrl.Active() != aps.Protect {
		t.Error("far end did not follow the switch")
	}

	// Heal, then ride out wait-to-restore: the group must revert.
	p.impair(aps.Working, nil)
	for i := 0; i < wtr+100; i++ {
		step()
	}
	if lb.Ctrl.Active() != aps.Working || la.Ctrl.Active() != aps.Working {
		t.Fatalf("revertive group did not revert: a=%v b=%v", la.Ctrl.Active(), lb.Ctrl.Active())
	}
	if lb.Ctrl.Switches != 2 {
		t.Errorf("switches = %d, want exactly 2 (out and back)", lb.Ctrl.Switches)
	}

	// Hitless end to end: zero renegotiation, zero supervisor action,
	// no corruption, and the delivery gap across BOTH selector moves
	// stayed inside the 400-tick budget.
	if corrupted != 0 {
		t.Errorf("%d corrupted datagrams delivered", corrupted)
	}
	if maxGap > 400 {
		t.Errorf("delivery gap %d ticks exceeds the 50 ms budget", maxGap)
	}
	for name, l := range map[string]*Link{"a": a, "b": b} {
		sup := l.Supervisor()
		if sup.Restarts != 0 || sup.DefectOutages != 0 || sup.Recoveries != 0 {
			t.Errorf("%s supervisor acted during protected failover: %+v", name, sup)
		}
	}
	lost := int(seq) - delivered
	t.Logf("sent=%d delivered=%d lost=%d maxGap=%d switchTook=%d standbyDiscarded=%d",
		seq, delivered, lost, maxGap, lb.Ctrl.LastSwitchTook, lb.DiscardedStandbyOctets)
	if lost > 40 {
		t.Errorf("lost %d datagrams; the switch windows should cost far less", lost)
	}
	if lb.DiscardedStandbyOctets == 0 {
		t.Error("standby deframer never ran hot — switches cannot have been hitless")
	}
}

// TestProtectionBothLinesDownFallsBack: with working AND protection
// cut, the outage escalates past the APS layer to the self-healing
// supervisor (PR 1 backoff path), and the session recovers after the
// lines heal.
func TestProtectionBothLinesDownFallsBack(t *testing.T) {
	p := newProtectedPair(t)
	a, b := p.a.Link, p.b.Link
	for i := 0; i < 30; i++ {
		p.tick()
	}
	if !b.Opened() || !b.IPReady() {
		t.Fatal("links did not open")
	}

	p.impair(aps.Working, zeroFrame)
	p.impair(aps.Protect, zeroFrame)
	for i := 0; i < 150; i++ {
		p.tick()
	}
	if b.Opened() {
		t.Fatal("session survived a dual cut — nothing to protect with")
	}
	sup := b.Supervisor()
	if sup.DefectOutages != 1 {
		t.Errorf("DefectOutages = %d, want 1", sup.DefectOutages)
	}

	p.impair(aps.Working, nil)
	p.impair(aps.Protect, nil)
	heal := 0
	for !(a.Opened() && b.Opened() && a.IPReady() && b.IPReady()) {
		p.tick()
		heal++
		if heal > 400 {
			t.Fatalf("pair did not recover within budget after dual cut")
		}
	}
	if got := b.Supervisor().Recoveries; got < 1 {
		t.Errorf("Recoveries = %d, want >= 1", got)
	}
	// The protected path still works after the full-outage round trip.
	payload := []byte{0x45, 0, 0, 20, 9, 9, 9, 9}
	if err := a.SendIPv4(payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p.tick()
		for _, d := range b.Received() {
			if bytes.Equal(d.Payload, payload) {
				return
			}
		}
	}
	t.Fatal("recovered pair did not deliver traffic")
}

// TestProtectionDualCutEscalatesAsTransportLOS pins the one escalation
// rule: a protected pair with both a→z sections cut is a line that is
// down, and its z end escalates it the way an engine port escalates a
// cut STM-16 section (TestEngineOverSONET) — exactly one transport-los
// outage, no defect-outage, then a recovery once the sections heal.
func TestProtectionDualCutEscalatesAsTransportLOS(t *testing.T) {
	p := newProtectedPair(t)
	tr := telemetry.NewTracer(256)
	p.b.Observe(Observation{Registry: telemetry.NewRegistry(), Tracer: tr}, "prot_z")
	for i := 0; i < 30; i++ {
		p.tick()
	}
	if !p.b.Link.IPReady() {
		t.Fatal("links did not open")
	}
	p.impair(aps.Working, zeroFrame)
	p.impair(aps.Protect, zeroFrame)
	for i := 0; i < 150; i++ {
		p.tick()
	}
	if p.lb.Up() {
		t.Fatal("z's protected line still up with both sections cut")
	}
	p.impair(aps.Working, nil)
	p.impair(aps.Protect, nil)
	for i := 0; i < 400 && !(p.a.Link.IPReady() && p.b.Link.IPReady()); i++ {
		p.tick()
	}
	var los, other int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "transport-los":
			los++
		case "defect-outage":
			other++
		}
	}
	if sup := p.b.Link.Supervisor(); los != 1 || other != 0 || sup.DefectOutages != 1 || sup.Recoveries < 1 {
		t.Errorf("z end: %d transport-los, %d defect-outage events, supervisor %+v; want exactly one transport-los outage and a recovery",
			los, other, sup)
	}
}

// TestProtectedPairTelemetryKeepsEndsApart instruments both ends of one
// pair into one registry. A cut of the a→b working line gives the ends
// different records — b switches on its own signal fail and sends it in
// K1, a follows on that far-end request and acknowledges with
// Reverse-Request — so two sync loops sharing one series would show:
// each end must keep its own aps_* and deframer record under its {link}
// label. A second mirror on an end's series is a wiring bug and is
// refused.
func TestProtectedPairTelemetryKeepsEndsApart(t *testing.T) {
	p := newProtectedPair(t)
	reg := telemetry.NewRegistry()
	p.a.Observe(Observation{Registry: reg}, "a")
	p.b.Observe(Observation{Registry: reg}, "b")
	for i := 0; i < 30; i++ {
		p.tick()
	}
	if !p.a.Link.IPReady() || !p.b.Link.IPReady() {
		t.Fatal("links did not open on the clean pair")
	}
	p.impair(aps.Working, zeroFrame)
	for i := 0; i < 40; i++ {
		p.tick()
	}
	if p.la.Ctrl.Switches != 1 || p.lb.Ctrl.Switches != 1 || p.la.Ctrl.RemoteWins == 0 || p.lb.Ctrl.RemoteWins != 0 {
		t.Fatalf("scenario did not split the ends: switches a=%d b=%d, remote wins a=%d b=%d; want 1/1, a>0, b=0",
			p.la.Ctrl.Switches, p.lb.Ctrl.Switches, p.la.Ctrl.RemoteWins, p.lb.Ctrl.RemoteWins)
	}
	snap := seriesValues(reg)
	for series, want := range map[string]float64{
		`aps_switches_total{link="a"}`:    1,
		`aps_switches_total{link="b"}`:    1,
		`aps_remote_wins_total{link="a"}`: float64(p.la.Ctrl.RemoteWins),
		`aps_remote_wins_total{link="b"}`: 0,
		`aps_request{link="a"}`:           float64(aps.ReqReverseRequest),
		`aps_request{link="b"}`:           float64(aps.ReqSignalFail),
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	// The dead working line shows on b's deframer only.
	if v := snap[`sonet_alarms{link="b",section="working"}`]; v == 0 {
		t.Error(`sonet_alarms{link="b",section="working"} = 0 on a cut line`)
	}
	if v, ok := snap[`sonet_alarms{link="a",section="working"}`]; !ok || v != 0 {
		t.Errorf(`sonet_alarms{link="a",section="working"} = %v (present=%v) on a clean line`, v, ok)
	}

	defer func() {
		if recover() == nil {
			t.Error("a second mirror on end a's series was not refused")
		}
	}()
	p.a.Observe(Observation{Registry: reg}, "a")
}

// TestProtectedLinkSteadyStateAllocatesNothing: a warmed pair carrying
// one 40-octet datagram per tick allocates nothing — the bridge queue
// is compacted in place and one receive buffer serves every line feed.
func TestProtectedLinkSteadyStateAllocatesNothing(t *testing.T) {
	p := newProtectedPair(t)
	payload := make([]byte, 40)
	payload[0] = 0x45
	var rx []Datagram
	step := func() {
		if p.a.Link.IPReady() {
			if err := p.a.Link.SendIPv4(payload); err != nil {
				t.Fatal(err)
			}
		}
		p.tick()
		rx = p.b.Link.ReceivedInto(rx[:0])
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if len(rx) != 1 {
		t.Fatalf("warmed pair delivered %d datagrams in a tick, want 1", len(rx))
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("%.1f allocs per tick, want 0", avg)
	}
}
