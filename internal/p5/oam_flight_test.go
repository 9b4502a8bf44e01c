package p5

import (
	"testing"

	"repro/internal/flight"
)

// The RegFlightCtrl/regSLOBurn block: host-commanded black-box dumps,
// capture-count readback, and the flight-dump / slo-burn interrupt
// causes wired by AttachFlight.
func TestOAMFlightBlock(t *testing.T) {
	sys := NewSystem(1)
	rec := flight.NewRecorder(nil, "oam", flight.Config{})
	var frames, errors uint64
	slo := flight.NewSLO(nil, "oam", flight.SLOConfig{FrameLossTarget: 0.01},
		flight.Sources{
			Frames: func() uint64 { return frames },
			Errors: func() uint64 { return errors },
		})
	sys.OAM.AttachFlight(rec, slo)
	sys.OAM.Write(RegIntMask, IntFlightDump|IntSLOBurn)

	if v := sys.OAM.Read(RegFlightCtrl); v != 0 {
		t.Fatalf("capture count = %d before any dump", v)
	}
	sys.OAM.Write(RegFlightCtrl, 1)
	if got := rec.CapturesFor("oam"); got != 1 {
		t.Fatalf("oam-reason captures = %d, want 1", got)
	}
	if v := sys.OAM.Read(RegIntStat); v&IntFlightDump == 0 {
		t.Error("IntFlightDump not raised by the host-commanded dump")
	}
	if !sys.Regs.IRQ() {
		t.Error("unmasked flight-dump interrupt not pending")
	}
	if v := sys.OAM.Read(RegFlightCtrl); v != 1 {
		t.Errorf("RegFlightCtrl reads %d, want the capture count 1", v)
	}
	sys.OAM.Write(RegFlightCtrl, 0) // bit 0 clear: no dump
	if got := rec.Captures(); got != 1 {
		t.Errorf("captures = %d after a bit-0-clear write, want 1", got)
	}
	sys.OAM.Write(RegIntStat, IntFlightDump)

	// Healthy SLO: no burn, no alarm bit. One sample a 2048-tick SLO
	// window apart from the next.
	slo.Sample(0)
	frames = 1000
	slo.Sample(2048)
	if v := sys.OAM.Read(regSLOBurn); v != 0 {
		t.Fatalf("RegSLOBurn = %#x on a clean window, want 0", v)
	}

	// Burn the budget 5x: the alarm edge raises IntSLOBurn and the
	// register reads the milli burn with bit 31 set.
	frames, errors = 2000, 50
	slo.Sample(2 * 2048)
	v := sys.OAM.Read(regSLOBurn)
	if v&(1<<31) == 0 {
		t.Errorf("RegSLOBurn = %#x, want alarm bit 31 set", v)
	}
	if burn := v &^ (1 << 31); burn < 4000 {
		t.Errorf("RegSLOBurn burn field = %dm, want ≥ 4000m", burn)
	}
	if got := sys.OAM.Read(RegIntStat); got&IntSLOBurn == 0 {
		t.Error("IntSLOBurn not raised on the alarm edge")
	}
}

// A dump triggered while another goroutine is mid-Write must not
// deadlock: RegFlightCtrl is handled outside the register lock because
// the capture hook re-enters raiseInt.
func TestOAMFlightDumpWriteNoDeadlock(t *testing.T) {
	sys := NewSystem(1)
	rec := flight.NewRecorder(nil, "oam", flight.Config{})
	sys.OAM.AttachFlight(rec, nil)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			sys.OAM.Write(RegFlightCtrl, 1)
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		sys.OAM.Write(RegIntMask, IntFlightDump)
		sys.OAM.Read(RegIntStat)
	}
	<-done
	if got := rec.Captures(); got != 100 {
		t.Fatalf("captures = %d, want 100", got)
	}
}
