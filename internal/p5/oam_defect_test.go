package p5

import (
	"testing"

	"repro/internal/sonet"
)

// TestOAMSectionAlarms wires a SONET deframer into the OAM block and
// drives it through an outage: the alarm register must track the live
// defect set, each raise must latch its interrupt cause, and the
// raise/clear and parity/resync status registers must reconcile against
// the monitor's own counts.
func TestOAMSectionAlarms(t *testing.T) {
	sys := NewSystem(8)
	df := sonet.NewDeframer(sonet.STM1, nil)
	sys.OAM.AttachSection(df)
	sys.OAM.Write(RegIntMask, IntLOS|IntOOF|intDefectClear)

	fr := sonet.NewFramer(sonet.STM1, nil) // an idle line: flag fill
	for i := 0; i < 4; i++ {
		df.Feed(fr.NextFrame())
	}
	if got := sys.OAM.Read(RegAlarm); got != 0 {
		t.Fatalf("alarm register = %#x on a clean line", got)
	}

	// Kill the line for 20 frame times: LOS raises immediately, OOF and
	// LOF follow as the dead line fails to frame.
	dead := make([]byte, 20*sonet.STM1.FrameBytes())
	df.Feed(dead)
	if a := sys.OAM.Read(RegAlarm); a&uint32(sonet.DefLOS) == 0 {
		t.Fatalf("alarm register = %#x, LOS not raised", a)
	}
	if stat := sys.OAM.Read(RegIntStat); stat&IntLOS == 0 {
		t.Fatalf("intstat = %#x, LOS cause not latched", stat)
	}
	if !sys.Regs.IRQ() {
		t.Fatal("no IRQ pending with LOS unmasked")
	}

	// Signal returns: defects clear and the clear-cause interrupt fires.
	for i := 0; i < 30; i++ {
		df.Feed(fr.NextFrame())
	}
	if a := sys.OAM.Read(RegAlarm); a != 0 {
		t.Fatalf("alarm register = %#x after recovery", a)
	}
	if stat := sys.OAM.Read(RegIntStat); stat&intDefectClear == 0 {
		t.Fatalf("intstat = %#x, defect-clear cause not latched", stat)
	}

	// Raise/clear totals reconcile exactly against the monitor.
	var raises, clears uint64
	for _, d := range []sonet.Defect{sonet.DefOOF, sonet.DefLOF, sonet.DefLOS, sonet.DefSD, sonet.DefSF} {
		raises += df.Defects.Raises(d)
		clears += df.Defects.Clears(d)
	}
	if got := sys.OAM.Read(RegDefectRaise); uint64(got) != raises {
		t.Errorf("RegDefectRaise = %d, monitor counted %d", got, raises)
	}
	if got := sys.OAM.Read(RegDefectClear); uint64(got) != clears {
		t.Errorf("RegDefectClear = %d, monitor counted %d", got, clears)
	}
	if got := sys.OAM.Read(RegResyncs); uint64(got) != df.ResyncCount {
		t.Errorf("RegResyncs = %d, deframer counted %d", got, df.ResyncCount)
	}
	if got := sys.OAM.Read(RegB1Errors); uint64(got) != df.B1Errors {
		t.Errorf("RegB1Errors = %d, deframer counted %d", got, df.B1Errors)
	}

	// Write-1-to-clear still works on defect causes.
	sys.OAM.Write(RegIntStat, IntLOS|intDefectClear)
	if stat := sys.OAM.Read(RegIntStat); stat&(IntLOS|intDefectClear) != 0 {
		t.Fatalf("intstat = %#x after W1C", stat)
	}
}
