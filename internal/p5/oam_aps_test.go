package p5

import (
	"testing"

	"repro/internal/aps"
	"repro/internal/sonet"
)

// TestOAMAPSRegisters drives a protection controller through a
// failover under the OAM block and checks the host-visible view: the
// state/signalling registers, the switch counter, the IntAPSSwitch
// cause (and its W1C behaviour), and external commands written through
// regAPSCtrl.
func TestOAMAPSRegisters(t *testing.T) {
	ctrl := aps.NewController()
	oam := &OAM{Regs: NewRegs()}
	oam.AttachAPS(ctrl)
	oam.Write(RegIntMask, IntAPSSwitch)

	ctrl.Advance(1)
	if got := oam.Read(RegAPSState); got != 0 {
		t.Fatalf("rest state = %#x, want 0 (working, no-request)", got)
	}
	if oam.Regs.IRQ() {
		t.Fatal("spurious IRQ at rest")
	}

	// SF on working: switch, interrupt, registers.
	ctrl.SetSignal(2, aps.Working, true, false)
	ctrl.Advance(2)
	if got := oam.Read(RegAPSState); got != uint32(1|aps.ReqSignalFail<<4) {
		t.Errorf("state = %#x, want protect+SF", got)
	}
	wantTx := uint32(aps.K1(aps.ReqSignalFail, 1))<<8 | uint32(aps.K2(1))
	if got := oam.Read(RegAPSTx); got != wantTx {
		t.Errorf("tx reg = %#x, want %#x", got, wantTx)
	}
	if got := oam.Read(RegAPSSwitches); got != 1 {
		t.Errorf("switch counter = %d, want 1", got)
	}
	if oam.Read(RegIntStat)&IntAPSSwitch == 0 || !oam.Regs.IRQ() {
		t.Fatal("switch did not raise IntAPSSwitch")
	}
	oam.Write(RegIntStat, IntAPSSwitch)
	if oam.Read(RegIntStat)&IntAPSSwitch != 0 {
		t.Fatal("IntAPSSwitch not write-1-to-clear")
	}

	// Far-end signalling surfaces in the rx register.
	ctrl.ReceiveK1K2(3, aps.K1(aps.ReqReverseRequest, 1), aps.K2(1))
	if got := oam.Read(RegAPSRx); got != uint32(aps.K1(aps.ReqReverseRequest, 1))<<8|uint32(aps.K2(1)) {
		t.Errorf("rx reg = %#x", got)
	}

	// Host commands through regAPSCtrl: lockout pins working even with
	// SF still active, clear releases it.
	oam.Write(regAPSCtrl, apsCmdLockout)
	ctrl.Advance(4)
	if ctrl.Active() != aps.Working {
		t.Fatal("lockout via register did not move the selector")
	}
	if oam.Read(RegAPSState)>>4 != uint32(aps.ReqLockout) {
		t.Errorf("state = %#x, want lockout request", oam.Read(RegAPSState))
	}
	oam.Write(regAPSCtrl, apsCmdClear)
	ctrl.Advance(5)
	if ctrl.Active() != aps.Protect {
		t.Fatal("clear did not return the selector to protect (SF-W active)")
	}
	if got := oam.Read(RegAPSSwitches); got != 3 {
		t.Errorf("switch counter = %d, want 3", got)
	}
}

// TestOAMB2Register: the line-parity counter reaches the status block
// through the attached section deframer.
func TestOAMB2Register(t *testing.T) {
	fr := sonet.NewFramer(sonet.STM1, nil)
	df := sonet.NewDeframer(sonet.STM1, nil)
	oam := &OAM{Regs: NewRegs()}
	oam.AttachSection(df)
	for i := 0; i < 6; i++ {
		f := fr.NextFrame()
		if i >= 2 {
			f[len(f)/2] ^= 0x08 // payload hit: B2-visible
		}
		df.Feed(f)
	}
	if df.B2Errors == 0 {
		t.Fatal("no B2 errors recorded")
	}
	if got := oam.Read(regB2Errors); uint64(got) != df.B2Errors {
		t.Errorf("RegB2Errors = %d, deframer %d", got, df.B2Errors)
	}
}
