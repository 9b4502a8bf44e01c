package gigapos

import (
	"testing"

	"repro/internal/aps"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/sonet"
)

// TestChaosSoakLinkSelfHealing is the deterministic chaos soak of the
// self-healing stack: two supervised PPP endpoints ride an STM-1
// section whose a→b direction suffers a scripted fault scenario — byte
// slips, a frame truncation, a duplication, two timed LOS line cuts —
// with mild noise bursts at seeded offsets layered on top. The link must
// return to Opened after every outage within bounded virtual time, the
// supervisor's exponential backoff must be visible in its retry
// timestamps, and the OAM defect counters must reconcile exactly
// against the injected script.
func TestChaosSoakLinkSelfHealing(t *testing.T) {
	const fb = 2430 // STM-1 frame bytes; one frame per direction per tick

	cfg := LinkConfig{
		EchoPeriod: 8, Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfg.Magic, cfg.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)

	// SONET carry a→b with the fault injector in the middle.
	la, lb := sonet.NewLinePair(sonet.STM1)
	dfB := lb.Deframer()

	// Physical-layer supervision: defect transitions drive both the P5
	// OAM alarm register and the PPP supervisor.
	dfB.Defects.OnEvent = func(sonet.DefectEvent) {
		b.NotifyDefects(uint32(dfB.Defects.Active()))
	}
	oam := &p5.OAM{Regs: p5.NewRegs()}
	oam.AttachSection(dfB)

	// The fault scenario, pinned to absolute line-octet offsets.
	var script fault.Script
	script.Insert(40*fb+1000, 0x55)      // byte slip (late)
	script.Delete(70*fb+500, 1)          // byte slip (early)
	script.Delete(100*fb+1200, fb-1200)  // frame truncation
	script.Duplicate(130*fb+17, 16)      // duplication
	script.LOS(170*fb, 150*fb)           // line cut #1: 150 frames
	script.Insert(360*fb+99, 0xAA, 0x55) // double slip mid-recovery era
	script.LOS(520*fb, 60*fb)            // line cut #2: 60 frames
	script.Corrupt(640*fb+300, 32, 0x0F) // a scorched run of octets
	// Mild burst noise over the whole soak: about one short burst every
	// 26 frames, each at a seeded offset with its own generator seed.
	const soak = 720 // frame times the script spans
	bursts := netsim.NewRand(0xC0FFEE)
	for i := uint64(0); i < soak/26; i++ {
		script.Noise(int64(bursts.Intn(soak*fb)), 8, 0.05, i)
	}
	inj := fault.NewInjector(script)

	now := int64(0)
	var rx [][]byte
	tickOnce := func() {
		now++
		a.Advance(now)
		b.Advance(now)
		la.Send(a.Output())
		la.Tick(now)
		rx = lb.Recv(rx[:0])
		b.InputBatch(rx)
		// b→a is a clean direct line.
		if out := b.Output(); len(out) > 0 {
			a.Input(out)
		}
	}

	a.Open()
	b.Open()
	a.Up()
	b.Up()
	for i := 0; i < 30; i++ {
		tickOnce()
	}
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean line")
	}

	// The soak: run the scripted scenario, then verify bounded-time
	// recovery after it ends.
	sawOutage := false
	la.Inject = inj.Apply
	for i := 0; i < soak; i++ {
		tickOnce()
		if !b.Opened() {
			sawOutage = true
		}
	}
	la.Inject = nil
	if !inj.Done() {
		t.Fatal("script not fully fired")
	}
	if !sawOutage {
		t.Fatal("two LOS windows produced no outage — scenario did not bite")
	}
	healBudget := 0
	for !(a.Opened() && b.Opened() && a.IPReady() && b.IPReady()) {
		tickOnce()
		healBudget++
		if healBudget > 400 {
			t.Fatalf("links did not heal within budget: a=%v b=%v alarms=%v",
				a.lcpA.State(), b.lcpA.State(), oam.Alarms())
		}
	}

	// Every outage recovered: two service-affecting windows were
	// reported and the supervisor logged a recovery for each loss of
	// Opened it saw.
	supB := b.Supervisor()
	if supB.DefectOutages != 2 {
		t.Errorf("b saw %d defect outages, want 2 (one per LOS window)", supB.DefectOutages)
	}
	if supB.Recoveries < 2 {
		t.Errorf("b recovered %d times, want >= 2", supB.Recoveries)
	}
	supA := a.Supervisor()
	if supA.Recoveries < 1 {
		t.Errorf("a recovered %d times, want >= 1", supA.Recoveries)
	}

	// Exponential backoff visible in the retry timestamps: a is blind
	// to the far-end defects (its receive line is clean), so during the
	// long line cut its attempts must space out.
	if len(supA.RetryTimes) < 2 {
		t.Fatalf("a retried %d times; backoff not observable", len(supA.RetryTimes))
	}
	grew := false
	for i := 2; i < len(supA.RetryTimes); i++ {
		if supA.RetryTimes[i]-supA.RetryTimes[i-1] > supA.RetryTimes[i-1]-supA.RetryTimes[i-2] {
			grew = true
		}
	}
	if len(supA.RetryTimes) > 2 && !grew {
		t.Errorf("retry gaps never grew: %v", supA.RetryTimes)
	}

	// OAM/defect reconciliation against the injected script.
	mon := dfB.Defects
	if got := mon.Raises(sonet.DefLOS); got != 2 {
		t.Errorf("LOS raises = %d, want exactly 2 (the scripted line cuts)", got)
	}
	if got := mon.Clears(sonet.DefLOS); got != 2 {
		t.Errorf("LOS clears = %d, want 2", got)
	}
	if inj.Stats.LOSOctets != 210*fb {
		t.Errorf("injector zeroed %d octets in its LOS windows, want %d", inj.Stats.LOSOctets, 210*fb)
	}
	if inj.Stats.Inserted != 3 || inj.Stats.Deleted != uint64(1+fb-1200) || inj.Stats.Duplicated != 16 {
		t.Errorf("injector slip stats: ins=%d del=%d dup=%d", inj.Stats.Inserted, inj.Stats.Deleted, inj.Stats.Duplicated)
	}
	if inj.Stats.NoiseBits == 0 {
		t.Error("the noise bursts flipped no bits")
	}
	var raises, clears uint64
	for _, d := range []sonet.Defect{sonet.DefOOF, sonet.DefLOF, sonet.DefLOS, sonet.DefSD, sonet.DefSF} {
		raises += mon.Raises(d)
		clears += mon.Clears(d)
	}
	if got := uint64(oam.Read(p5.RegDefectRaise)); got != raises {
		t.Errorf("OAM raise counter %d != monitor %d", got, raises)
	}
	if got := uint64(oam.Read(p5.RegDefectClear)); got != clears {
		t.Errorf("OAM clear counter %d != monitor %d", got, clears)
	}
	if got := uint64(oam.Read(p5.RegResyncs)); got != dfB.ResyncCount {
		t.Errorf("OAM resync counter %d != deframer %d", got, dfB.ResyncCount)
	}
	if alarms := oam.Alarms(); alarms != 0 {
		t.Errorf("alarm register %v after full recovery", alarms)
	}

	// The healed link carries traffic end to end.
	payload := []byte{0x45, 0, 0, 20, 1, 2, 3, 4}
	if err := a.SendIPv4(payload); err != nil {
		t.Fatal(err)
	}
	delivered := false
	for i := 0; i < 40 && !delivered; i++ {
		tickOnce()
		for _, d := range b.Received() {
			if string(d.Payload) == string(payload) {
				delivered = true
			}
		}
	}
	if !delivered {
		t.Fatal("healed link did not deliver traffic")
	}
	t.Logf("scenario %q: b outages=%d recoveries=%d; a retries at %v; OAM raises=%d clears=%d resyncs=%d",
		script.String(), supB.DefectOutages, supB.Recoveries, supA.RetryTimes,
		oam.Read(p5.RegDefectRaise), oam.Read(p5.RegDefectClear), oam.Read(p5.RegResyncs))
}

// TestChaosSoakDualLineProtection is the protected-pair counterpart of
// the chaos soak: a 1+1 group rides two scripted fault scenarios, one
// per line, that cut, corrupt, and slip each line in turn but never
// take both down at once. The APS layer must absorb every event — the
// headline assertion is that the PPP session never drops and the
// self-healing supervisor never acts (zero LCP restarts, zero defect
// outages) while at least one line of the pair is up.
func TestChaosSoakDualLineProtection(t *testing.T) {
	const fb = 2430
	const wtr = 100 // the controller's wait-to-restore
	p := newProtectedPair(t)
	a, b, la, lb := p.a.Link, p.b.Link, p.la, p.lb

	// Per-line scripts, pinned to absolute line-octet offsets. The
	// service-affecting windows are disjoint across the two lines:
	// whenever one line is dark the other is clean.
	var w, pr fault.Script
	w.LOS(50*fb, 70*fb)              // working cut #1 (frames 50-119)
	w.Insert(260*fb+9, 0x55)         // byte slip: working loses alignment
	w.LOS(300*fb, 40*fb)             // working cut #2 (frames 300-339)
	pr.Corrupt(150*fb+100, 64, 0xFF) // standby line parity burst
	pr.LOS(180*fb, 60*fb)            // protect cut while working is clean
	pr.LOS(400*fb, 50*fb)            // protect cut #2, selector on working
	injW, injP := fault.NewInjector(w), fault.NewInjector(pr)
	p.impair(aps.Working, injW.Apply)
	p.impair(aps.Protect, injP.Apply)

	for i := 0; i < 40; i++ {
		p.tick()
	}
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean pair")
	}

	// Soak with live traffic: one deterministic datagram per tick a→b.
	var seq uint32
	var delivered, corrupted int
	for i := 0; i < 520; i++ {
		seq++
		pl := make([]byte, 32)
		pl[0] = 0x45
		pl[4], pl[5], pl[6], pl[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		for j := 8; j < len(pl); j++ {
			pl[j] = byte(seq) ^ byte(j)*11
		}
		if err := a.SendIPv4(pl); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		p.tick()
		for _, d := range b.Received() {
			if len(d.Payload) != 32 {
				corrupted++
				continue
			}
			s := uint32(d.Payload[4])<<24 | uint32(d.Payload[5])<<16 |
				uint32(d.Payload[6])<<8 | uint32(d.Payload[7])
			ok := d.Payload[0] == 0x45 && s >= 1 && s <= seq
			for j := 8; ok && j < len(d.Payload); j++ {
				ok = d.Payload[j] == byte(s)^byte(j)*11
			}
			if !ok {
				corrupted++
				continue
			}
			delivered++
		}
		// The whole point of 1+1: the session layer never sees any of it.
		if !b.Opened() || !b.IPReady() {
			t.Fatalf("session dropped at tick %d with one line still up", p.now)
		}
	}
	if !injW.Done() || !injP.Done() {
		t.Fatalf("scripts not fully fired: working=%q protect=%q", w.String(), pr.String())
	}

	// Ride out the last wait-to-restore; the revertive group ends home.
	for i := 0; i < wtr+60; i++ {
		p.tick()
	}
	if lb.Ctrl.Active() != aps.Working || la.Ctrl.Active() != aps.Working {
		t.Fatalf("group did not revert: a=%v b=%v", la.Ctrl.Active(), lb.Ctrl.Active())
	}

	// Zero LCP restarts while >= 1 line was up — on both ends.
	for name, l := range map[string]*Link{"a": a, "b": b} {
		sup := l.Supervisor()
		if sup.Restarts != 0 || sup.DefectOutages != 0 || sup.Recoveries != 0 {
			t.Errorf("%s supervisor acted during protected chaos: %+v", name, sup)
		}
	}
	if corrupted != 0 {
		t.Errorf("%d corrupted datagrams delivered", corrupted)
	}
	// Two working cuts each force a failover and a revert; protect-line
	// events must not add spurious selector flaps beyond the slip's.
	if lb.Ctrl.ToProtect < 2 {
		t.Errorf("ToProtect = %d, want >= 2 (two working-line cuts)", lb.Ctrl.ToProtect)
	}
	if lb.Ctrl.Switches < 4 {
		t.Errorf("Switches = %d, want >= 4 (each cut out and back)", lb.Ctrl.Switches)
	}
	lost := int(seq) - delivered
	t.Logf("sent=%d delivered=%d lost=%d switches=%d toProtect=%d standbyDiscarded=%d",
		seq, delivered, lost, lb.Ctrl.Switches, lb.Ctrl.ToProtect, lb.DiscardedStandbyOctets)
	if lost > int(seq)/10 {
		t.Errorf("lost %d of %d datagrams; switch windows should cost far less", lost, seq)
	}
}
