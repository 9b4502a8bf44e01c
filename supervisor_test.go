package gigapos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/lcp"
)

// tick advances both endpoints one virtual time unit and, unless the
// line is cut, exchanges whatever bytes each produced.
func tick(a, b *Link, now int64, cut bool) {
	a.Advance(now)
	b.Advance(now)
	out := a.Output()
	if len(out) > 0 && !cut {
		b.Input(out)
	}
	out = b.Output()
	if len(out) > 0 && !cut {
		a.Input(out)
	}
}

// TestLCPMaxConfigureExhaustion: with no peer answering, the automaton
// retransmits Configure-Requests Max-Configure times and then gives up
// into Stopped (RFC 1661 TO- with the restart counter expired).
func TestLCPMaxConfigureExhaustion(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	a.lcpA.MaxConfigure = 3
	a.Open()
	a.Up()
	requests := 0
	for now := int64(1); now <= 40; now++ {
		a.Advance(now)
		if len(a.Output()) > 0 {
			requests++
		}
	}
	if st := a.lcpA.State(); st != lcp.Stopped {
		t.Fatalf("state = %v, want Stopped after Max-Configure", st)
	}
	if requests != 3 {
		t.Errorf("sent %d Configure-Requests, want 3", requests)
	}
	if a.lcpA.Timeouts < 3 {
		t.Errorf("timeouts = %d, want >= 3", a.lcpA.Timeouts)
	}
}

// TestEchoDeadPeerSupervisedHeal: the keepalive detects a silent peer
// and tears the link down; when the line returns, the supervisor brings
// it back to Opened without operator intervention.
func TestEchoDeadPeerSupervisedHeal(t *testing.T) {
	cfg := LinkConfig{
		EchoPeriod: 4, EchoMisses: 2,
		Supervise: true, RetryMin: 4, RetryMax: 64,
	}
	cfg.Magic, cfg.IPAddr = 0x1111, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0x2222, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)
	a.Open()
	b.Open()
	a.Up()
	b.Up()

	now := int64(0)
	run := func(ticks int, cut bool) {
		for i := 0; i < ticks; i++ {
			now++
			tick(a, b, now, cut)
		}
	}
	run(50, false)
	if !a.Opened() || !b.Opened() {
		t.Fatal("links did not open")
	}

	// Cut the line long enough for the keepalive to give up.
	run(60, true)
	if a.EchoTimeouts == 0 {
		t.Fatal("dead peer not detected")
	}
	if a.Opened() {
		t.Fatal("link still Opened across a dead line")
	}

	// Splice the line back: the supervisor re-runs LCP and IPCP.
	run(300, false)
	if !a.Opened() || !b.Opened() {
		t.Fatalf("links did not heal: a=%v b=%v", a.lcpA.State(), b.lcpA.State())
	}
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("IPCP did not reopen")
	}
	sup := a.Supervisor()
	if sup.Restarts == 0 || sup.Recoveries == 0 {
		t.Errorf("supervisor stats: %+v, want restarts and a recovery", sup)
	}
}

// TestSupervisorBackoffDoubling: against a dead line, successive
// re-open attempts space out exponentially and cap at RetryMax.
func TestSupervisorBackoffDoubling(t *testing.T) {
	a := NewLink(LinkConfig{
		Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Supervise: true, RetryMin: 4, RetryMax: 16,
	})
	a.lcpA.MaxConfigure = 1 // give up after one unanswered request
	a.Open()
	a.Up()
	for now := int64(1); now <= 400; now++ {
		a.Advance(now)
		a.Output()
	}
	times := a.Supervisor().RetryTimes
	if len(times) < 4 {
		t.Fatalf("only %d retries in 400 units: %v", len(times), times)
	}
	// Each cycle is the LCP give-up time (restart period) plus the
	// supervisor backoff, so the gaps grow roughly 4→8→16 and then
	// hold; the ±20% retry jitter wobbles each gap but neither the
	// growth trend nor the cap.
	var gaps []int64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	const slack = 3 // LCP give-up time per cycle
	for _, g := range gaps {
		if g > 16*120/100+slack {
			t.Fatalf("gap %d exceeds jittered RetryMax: gaps %v", g, gaps)
		}
	}
	var capped int64
	tail := gaps[len(gaps)/2:]
	for _, g := range tail {
		capped += g
	}
	capped /= int64(len(tail))
	if gaps[0] >= capped {
		t.Errorf("no exponential growth visible: first gap %d, capped mean %d, gaps %v",
			gaps[0], capped, gaps)
	}
}

// TestSupervisorRetryJitterDesynchronizes: two links that die at the
// same instant with the same backoff config must not retry in
// lockstep — the seeded ±20% retry jitter (derived per link from
// Magic when JitterSeed is 0) spreads their schedules, so a herd of
// links orphaned by one upstream failure does not thunder back in
// phase.
func TestSupervisorRetryJitterDesynchronizes(t *testing.T) {
	mk := func(magic uint32) *Link {
		l := NewLink(LinkConfig{
			Magic: magic, IPAddr: [4]byte{10, 0, 0, 1},
			Supervise: true, RetryMin: 8, RetryMax: 64,
		})
		l.lcpA.MaxConfigure = 1 // give up after one unanswered request
		l.Open()
		l.Up()
		return l
	}
	a, b := mk(0xA0000001), mk(0xA0000002)
	for now := int64(1); now <= 600; now++ {
		a.Advance(now)
		a.Output()
		b.Advance(now)
		b.Output()
	}
	ta, tb := a.Supervisor().RetryTimes, b.Supervisor().RetryTimes
	if len(ta) < 4 || len(tb) < 4 {
		t.Fatalf("too few retries against a dead line: a=%v b=%v", ta, tb)
	}
	n := min(len(ta), len(tb))
	same := 0
	for i := 0; i < n; i++ {
		if ta[i] == tb[i] {
			same++
		}
	}
	if same == n {
		t.Fatalf("retry schedules in lockstep despite jitter: a=%v b=%v", ta, tb)
	}
}

// TestNotifyDefectsParksAndKicks: a service-affecting alarm takes the
// link down and parks the supervisor (no retries against a dead line);
// the all-clear triggers an immediate re-open.
func TestNotifyDefectsParksAndKicks(t *testing.T) {
	cfg := LinkConfig{Supervise: true, RetryMin: 4, RetryMax: 32}
	cfg.Magic, cfg.IPAddr = 1, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 2, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	now := int64(0)
	run := func(ticks int, cut bool) {
		for i := 0; i < ticks; i++ {
			now++
			tick(a, b, now, cut)
		}
	}
	run(50, false)
	if !a.Opened() {
		t.Fatal("did not open")
	}

	a.NotifyDefects(AlarmLOS)
	b.NotifyDefects(AlarmLOS)
	if a.Opened() {
		t.Fatal("link survived an LOS alarm")
	}
	restartsDuring := a.Supervisor().Restarts
	run(100, true)
	if got := a.Supervisor().Restarts; got != restartsDuring {
		t.Fatalf("supervisor retried %d times against an active LOS", got-restartsDuring)
	}

	a.NotifyDefects(0)
	b.NotifyDefects(0)
	run(200, false)
	if !a.Opened() || !b.Opened() {
		t.Fatal("links did not re-open after the all-clear")
	}
	sup := a.Supervisor()
	if sup.DefectOutages != 1 {
		t.Errorf("DefectOutages = %d, want 1", sup.DefectOutages)
	}
	if sup.Recoveries == 0 {
		t.Error("no recovery recorded")
	}
}

// TestRetryTimesBounded: the retry-timestamp log is a ring — an
// endless outage keeps only the most recent retryTimesCap entries
// while Restarts counts the exact total.
func TestRetryTimesBounded(t *testing.T) {
	cfg := LinkConfig{Supervise: true, RetryMin: 8, RetryMax: 16}
	cfg.Magic, cfg.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	l := NewLink(cfg)
	l.Open() // Starting: restartLCP's gate accepts

	const attempts = retryTimesCap + 36
	for i := 1; i <= attempts; i++ {
		l.restartLCP(int64(i))
		l.lcpA.Down() // back to Starting for the next attempt
	}
	sup := l.Supervisor()
	if sup.Restarts != attempts {
		t.Fatalf("Restarts = %d, want %d", sup.Restarts, attempts)
	}
	if len(sup.RetryTimes) != retryTimesCap {
		t.Fatalf("len(RetryTimes) = %d, want %d", len(sup.RetryTimes), retryTimesCap)
	}
	if got := sup.RetryTimes[len(sup.RetryTimes)-1]; got != attempts {
		t.Errorf("newest entry = %d, want %d", got, attempts)
	}
	if got := sup.RetryTimes[0]; got != attempts-retryTimesCap+1 {
		t.Errorf("oldest entry = %d, want %d (oldest dropped first)", got, attempts-retryTimesCap+1)
	}
	for i := 1; i < len(sup.RetryTimes); i++ {
		if sup.RetryTimes[i] != sup.RetryTimes[i-1]+1 {
			t.Fatalf("ring not contiguous at %d: %v", i, sup.RetryTimes[i-3:i+1])
		}
	}
}

// TestRestartTimerMeasuresLine: a supervised pair with no restart
// period set comes up over a line of any one-way delay, and a one-sided
// re-open (Down+Up on A) recovers without one restart-timer expiry on
// any of the four automata — bring-up has measured the line — in
// 5·delay + 5 ticks. Neither needs a supervisor restart. On a zero-delay
// line the measured timer is the RFC default: IP-ready at tick 3, the
// re-open in 5 ticks, as with the fixed timer.
func TestRestartTimerMeasuresLine(t *testing.T) {
	for _, delay := range []int64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128} {
		t.Run(fmt.Sprintf("delay=%d", delay), func(t *testing.T) {
			a := NewLink(LinkConfig{Magic: 0xA0000001, IPAddr: [4]byte{10, 0, 0, 1}, Supervise: true})
			z := NewLink(LinkConfig{Magic: 0xA0000002, IPAddr: [4]byte{10, 0, 0, 2}, Supervise: true})
			ab, za := &channel.Line{Delay: delay}, &channel.Line{Delay: delay}
			timeouts := func() uint64 {
				return a.lcpA.Timeouts + a.ipcpA.Timeouts + z.lcpA.Timeouts + z.ipcpA.Timeouts
			}
			restarts := func() uint64 { return a.Supervisor().Restarts + z.Supervisor().Restarts }
			now := int64(-1) // the last tick run; bring-up starts at tick 0
			step := func() {
				now++
				a.Advance(now)
				z.Advance(now)
				// Both ends transmit, then both receive: every hop
				// takes the line's delay plus one tick.
				if out := a.Output(); len(out) > 0 {
					ab.Push(now, bytes.Clone(out))
				}
				if out := z.Output(); len(out) > 0 {
					za.Push(now, bytes.Clone(out))
				}
				for _, c := range ab.Pop(now, nil) {
					z.Input(c)
				}
				for _, c := range za.Pop(now, nil) {
					a.Input(c)
				}
			}
			// settle steps until both ends are IP-ready and returns
			// that tick.
			settle := func(what string) int64 {
				for deadline := now + 20000; now < deadline; {
					step()
					if a.IPReady() && z.IPReady() {
						return now
					}
				}
				t.Fatalf("%s: not IP-ready in 20000 ticks (%d timer expiries, %d supervisor restarts)",
					what, timeouts(), restarts())
				return 0
			}

			a.Open()
			a.Up()
			z.Open()
			z.Up()
			up := settle("bring-up")
			upTimeouts := timeouts()
			for i := int64(0); i < 4*delay+8; i++ { // drain the line
				step()
			}
			if !a.IPReady() || !z.IPReady() {
				t.Fatal("the pair fell out of IP-ready after bring-up")
			}

			before, down := timeouts(), now
			a.Down()
			a.Up()
			reopen := settle("re-open") - down
			t.Logf("IP-ready at tick %d (%d timer expiries), re-open in %d ticks, %d supervisor restarts",
				up, upTimeouts, reopen, restarts())
			if n := timeouts() - before; n != 0 {
				t.Errorf("re-open took %d restart-timer expiries, want 0", n)
			}
			if n := restarts(); n != 0 {
				t.Errorf("%d supervisor restarts, want 0", n)
			}
			// Five hops: LCP request; LCP Ack and request; IPCP request;
			// IPCP Ack and request; the last Ack.
			if reopen != 5*delay+5 {
				t.Errorf("re-open in %d ticks, want 5·delay + 5 = %d", reopen, 5*delay+5)
			}
			if delay == 0 && up != 3 {
				t.Errorf("zero-delay line IP-ready at tick %d, want 3", up)
			}
		})
	}
}
