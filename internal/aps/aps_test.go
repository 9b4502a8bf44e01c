package aps

import "testing"

// parseK2 splits a K2 byte into bridged channel and mode.
func parseK2(b byte) (channel int, bidirectional bool) {
	return int(b >> 4), b&0x07 == modeBidirectional
}

// TestK1K2Codec pins the byte layout.
func TestK1K2Codec(t *testing.T) {
	b := K1(ReqSignalFail, 1)
	if b != 0xC1 {
		t.Fatalf("K1(SF,1) = %#x", b)
	}
	r, ch := ParseK1(b)
	if r != ReqSignalFail || ch != 1 {
		t.Fatalf("ParseK1 = %v/%d", r, ch)
	}
	k2 := K2(1)
	if ch, bidi := parseK2(k2); ch != 1 || !bidi {
		t.Fatalf("parseK2(%#x) = %d/%v", k2, ch, bidi)
	}
	if ReqLockout < ReqForcedSwitch || ReqForcedSwitch < ReqSignalFail ||
		ReqSignalFail < ReqSignalDegrade || ReqSignalDegrade < reqManualSwitch ||
		reqManualSwitch < ReqWaitToRestore {
		t.Fatal("request codes are not priority-ordered")
	}
	if ReqSignalFail.String() != "signal-fail" || Working.String() != "working" {
		t.Error("string forms wrong")
	}
}

// TestSFSwitchesToProtect: the basic failover and the wait-to-restore
// path home.
func TestSFSwitchesToProtect(t *testing.T) {
	c := NewController()
	var events []SwitchEvent
	c.OnSwitch = func(e SwitchEvent) { events = append(events, e) }

	c.Advance(1)
	if c.Active() != Working {
		t.Fatal("selector not on working at rest")
	}
	c.SetSignal(2, Working, true, false)
	c.Advance(2)
	if c.Active() != Protect {
		t.Fatal("SF on working did not switch")
	}
	if len(events) != 1 || events[0].Trigger != ReqSignalFail || events[0].Duration != 0 {
		t.Fatalf("events = %v", events)
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqSignalFail, 1) {
		t.Errorf("tx K1 = %#x", k1)
	}

	// Condition clears: WTR holds the selector for waitToRestore units.
	c.SetSignal(5, Working, false, false)
	c.Advance(5)
	if c.Active() != Protect {
		t.Fatal("reverted before WTR")
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqWaitToRestore, 1) {
		t.Errorf("tx K1 during WTR = %#x", k1)
	}
	c.Advance(5 + waitToRestore - 1)
	if c.Active() != Protect {
		t.Fatal("reverted at WTR-1")
	}
	c.Advance(5 + waitToRestore)
	if c.Active() != Working {
		t.Fatal("did not revert after WTR expiry")
	}
	if c.Switches != 2 || c.ToProtect != 1 || c.ToWorking != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

// TestPriorityOrdering: SF on protection pre-empts a forced switch;
// lockout pre-empts everything.
func TestPriorityOrdering(t *testing.T) {
	c := NewController()
	c.ForcedSwitch(1)
	c.Advance(1)
	if c.Active() != Protect {
		t.Fatal("forced switch did not move the selector")
	}
	// Protection fails: selector must abandon it despite the command.
	c.SetSignal(2, Protect, true, false)
	c.Advance(2)
	if c.Active() != Working {
		t.Fatal("SF on protection did not pre-empt forced switch")
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqSignalFail, 0) {
		t.Errorf("tx K1 = %#x, want SF on null channel", k1)
	}
	c.SetSignal(3, Protect, false, false)
	c.Advance(3)
	if c.Active() != Protect {
		t.Fatal("forced switch did not resume after protection healed")
	}
	// Lockout beats the still-latched forced command and SF on working.
	c.Lockout(4)
	c.SetSignal(4, Working, true, false)
	c.Advance(4)
	if c.Active() != Working {
		t.Fatal("lockout did not pin the selector to working")
	}
	c.Clear()
	c.Advance(5)
	if c.Active() != Protect {
		t.Fatal("clear did not release the lockout (forced still latched)")
	}
	c.Clear()
	// SF-W still active, so the selector stays on protect via SF.
	c.Advance(6)
	if c.Active() != Protect {
		t.Fatal("SF on working lost after clearing commands")
	}
}

// TestManualSwitchYieldsToSignalDegrade: manual sits below SD in the
// priority order — SD on the protection line sends the selector home.
func TestManualSwitchYieldsToSignalDegrade(t *testing.T) {
	c := NewController()
	c.ManualSwitch(1)
	c.Advance(1)
	if c.Active() != Protect {
		t.Fatal("manual switch ignored")
	}
	c.SetSignal(2, Protect, false, true) // SD on protection
	c.Advance(2)
	if c.Active() != Working {
		t.Fatal("SD on protection did not pre-empt manual switch")
	}
}

// TestBidirectionalHandshake runs both ends against each other: B sees
// SF on its receive working line; A must follow on the strength of the
// K1 request alone and acknowledge with Reverse-Request.
func TestBidirectionalHandshake(t *testing.T) {
	a, b := NewController(), NewController()

	// Transport: each Advance's tx bytes arrive at the peer next tick.
	deliver := func(now int64, from, to *Controller) {
		k1, k2 := from.TxK1K2()
		to.ReceiveK1K2(now, k1, k2)
	}

	b.SetSignal(1, Working, true, false)
	for now := int64(1); now <= 4; now++ {
		a.Advance(now)
		b.Advance(now)
		deliver(now, a, b)
		deliver(now, b, a)
	}
	if b.Active() != Protect {
		t.Fatal("B did not switch on local SF")
	}
	if a.Active() != Protect {
		t.Fatal("A did not follow the far-end SF request")
	}
	if a.RemoteWins == 0 {
		t.Error("A never recorded the remote request winning")
	}
	if k1, _ := a.TxK1K2(); k1 != K1(ReqReverseRequest, 1) {
		t.Errorf("A tx K1 = %#x, want reverse-request ack", k1)
	}

	// Heal: B runs WTR, reverts, and A follows home.
	b.SetSignal(10, Working, false, false)
	for now := int64(10); now <= 10+waitToRestore+30; now++ {
		a.Advance(now)
		b.Advance(now)
		deliver(now, a, b)
		deliver(now, b, a)
	}
	if b.Active() != Working || a.Active() != Working {
		t.Fatalf("pair did not revert: a=%v b=%v", a.Active(), b.Active())
	}
}

// TestBothLinesFailed: with SF on both lines the selector rests on
// working (SF-P outranks SF-W) — the layer above falls back to its own
// recovery path.
func TestBothLinesFailed(t *testing.T) {
	c := NewController()
	c.SetSignal(1, Working, true, false)
	c.Advance(1)
	if c.Active() != Protect {
		t.Fatal("no switch on SF-W")
	}
	c.SetSignal(2, Protect, true, false)
	c.Advance(2)
	if c.Active() != Working {
		t.Fatal("selector not parked on working with both lines failed")
	}
	// Working heals first: stay (protection still failed).
	c.SetSignal(3, Working, false, false)
	c.Advance(3)
	if c.Active() != Working {
		t.Fatal("left working while protection still failed")
	}
}

// TestWTRCancelledBySecondSF: a working-line failure during the
// wait-to-restore countdown must cancel the timer and keep the
// selector on protection without an intermediate revert — and the next
// restoral must serve a full WTR period, not the remainder of the
// cancelled one.
func TestWTRCancelledBySecondSF(t *testing.T) {
	c := NewController()
	c.SetSignal(2, Working, true, false)
	c.Advance(2)
	if c.Active() != Protect {
		t.Fatal("first SF did not switch")
	}

	// Heals at 10: WTR runs 10→110.
	c.SetSignal(10, Working, false, false)
	c.Advance(10)
	if k1, _ := c.TxK1K2(); k1 != K1(ReqWaitToRestore, 1) {
		t.Fatalf("tx K1 during WTR = %#x", k1)
	}

	// Second SF at 25, inside the countdown.
	c.SetSignal(25, Working, true, false)
	c.Advance(25)
	if c.Active() != Protect {
		t.Fatal("second SF during WTR lost the selector")
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqSignalFail, 1) {
		t.Fatalf("tx K1 after WTR cancel = %#x, want signal-fail", k1)
	}
	if c.Switches != 1 {
		t.Fatalf("switches = %d, want 1 (no intermediate revert)", c.Switches)
	}

	// Heals again at 40: a FULL WTR must run (40→140); reverting at the
	// old expiry (110) or the old remainder would be a stale timer.
	c.SetSignal(40, Working, false, false)
	for now := int64(40); now < 40+waitToRestore; now++ {
		c.Advance(now)
		if c.Active() != Protect {
			t.Fatalf("reverted at %d, before the re-armed WTR expired", now)
		}
	}
	c.Advance(40 + waitToRestore)
	if c.Active() != Working {
		t.Fatal("did not revert after the re-armed WTR")
	}
	if c.Switches != 2 || c.ToWorking != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestWTRExpiryRacesSecondSF: an SF that asserts on the very tick the
// WTR expires must win the evaluation — the selector stays on
// protection with no revert-and-return double transition.
func TestWTRExpiryRacesSecondSF(t *testing.T) {
	c := NewController()
	c.SetSignal(2, Working, true, false)
	c.Advance(2)
	c.SetSignal(10, Working, false, false)
	c.Advance(10) // WTR expiry at 110

	// The line observation for tick 110 lands before the tick's Advance,
	// exactly as the frame loop feeds the controller.
	c.SetSignal(10+waitToRestore, Working, true, false)
	c.Advance(10 + waitToRestore)
	if c.Active() != Protect {
		t.Fatal("selector left protection while working was failed")
	}
	if c.Switches != 1 {
		t.Fatalf("switches = %d, want 1 (no flap through working)", c.Switches)
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqSignalFail, 1) {
		t.Fatalf("tx K1 = %#x, want signal-fail", k1)
	}
}

// TestLockoutDuringWTR: a lockout command in the middle of the WTR
// countdown pre-empts everything — the selector returns to working
// immediately, the WTR is abandoned, and a working-line SF while
// locked out must NOT move the selector. Clearing the lockout with the
// failure still standing switches to protection at last.
func TestLockoutDuringWTR(t *testing.T) {
	c := NewController()
	c.SetSignal(2, Working, true, false)
	c.Advance(2)
	c.SetSignal(10, Working, false, false)
	c.Advance(10) // WTR armed, expiry at 110

	c.Lockout(20)
	c.Advance(20)
	if c.Active() != Working {
		t.Fatal("lockout did not force the selector to working")
	}
	if k1, _ := c.TxK1K2(); k1 != K1(ReqLockout, 0) {
		t.Fatalf("tx K1 under lockout = %#x", k1)
	}

	// New SF while locked out: protection is unavailable.
	c.SetSignal(30, Working, true, false)
	for now := int64(30); now < 70; now += 5 {
		c.Advance(now)
		if c.Active() != Working {
			t.Fatalf("selector moved at %d despite lockout", now)
		}
	}

	// Lockout clears with the failure still standing: switch now, and
	// the switch duration dates from the command clearing, not from the
	// 40-tick-old condition.
	c.Clear()
	c.Advance(70)
	if c.Active() != Protect {
		t.Fatal("did not switch after lockout cleared")
	}
	if c.Switches != 3 || c.ToProtect != 2 || c.ToWorking != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}

	// And the eventual heal still runs a clean WTR from scratch.
	c.SetSignal(80, Working, false, false)
	c.Advance(80)
	if k1, _ := c.TxK1K2(); k1 != K1(ReqWaitToRestore, 1) {
		t.Fatalf("tx K1 = %#x, want wait-to-restore", k1)
	}
	c.Advance(80 + waitToRestore - 1)
	if c.Active() != Protect {
		t.Fatal("reverted before the post-lockout WTR expired")
	}
	c.Advance(80 + waitToRestore)
	if c.Active() != Working {
		t.Fatal("did not revert after the post-lockout WTR")
	}
}
