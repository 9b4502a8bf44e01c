package p5

import (
	"errors"
	"testing"
)

// The regProfCtrl block: host-commanded runtime profile snapshots,
// dump-count readback, and the prof-dump interrupt cause wired by
// AttachProfiler.
func TestOAMProfBlock(t *testing.T) {
	sys := NewSystem(1)
	dumps := 0
	sys.OAM.AttachProfiler(func() error { dumps++; return nil })
	sys.OAM.Write(RegIntMask, IntProfDump)

	if v := sys.OAM.Read(regProfCtrl); v != 0 {
		t.Fatalf("dump count = %d before any dump", v)
	}
	sys.OAM.Write(regProfCtrl, 1)
	if dumps != 1 {
		t.Fatalf("dumper called %d times, want 1", dumps)
	}
	if v := sys.OAM.Read(RegIntStat); v&IntProfDump == 0 {
		t.Error("IntProfDump not raised by the host-commanded dump")
	}
	if !sys.Regs.IRQ() {
		t.Error("unmasked prof-dump interrupt not pending")
	}
	if v := sys.OAM.Read(regProfCtrl); v != 1 {
		t.Errorf("RegProfCtrl reads %d, want the dump count 1", v)
	}
	sys.OAM.Write(regProfCtrl, 0) // bit 0 clear: no dump
	if dumps != 1 {
		t.Errorf("dumper called %d times after a bit-0-clear write, want 1", dumps)
	}
}

// A failing dump must neither count nor raise the interrupt — the host
// reads the unchanged count and knows the snapshot never landed.
func TestOAMProfDumpFailureNotCounted(t *testing.T) {
	sys := NewSystem(1)
	sys.OAM.AttachProfiler(func() error { return errors.New("disk full") })
	sys.OAM.Write(RegIntMask, IntProfDump)
	sys.OAM.Write(regProfCtrl, 1)
	if v := sys.OAM.Read(regProfCtrl); v != 0 {
		t.Errorf("failed dump counted: RegProfCtrl = %d", v)
	}
	if v := sys.OAM.Read(RegIntStat); v&IntProfDump != 0 {
		t.Error("IntProfDump raised for a failed dump")
	}
}

// Without an attached profiler the register is inert: writes are
// ignored and reads return zero, hardware-style.
func TestOAMProfUnattachedIsInert(t *testing.T) {
	sys := NewSystem(1)
	sys.OAM.Write(regProfCtrl, 1)
	if v := sys.OAM.Read(regProfCtrl); v != 0 {
		t.Errorf("unattached RegProfCtrl reads %d, want 0", v)
	}
}
