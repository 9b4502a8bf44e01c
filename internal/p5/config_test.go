package p5

import (
	"sync"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/ppp"
)

// checkOneSample asserts that every datapath unit holds the values of
// the clock's one register sample.
func checkOneSample(t *testing.T, sys *System) {
	t.Helper()
	c := sys.cfg
	tx, rx := sys.Tx, sys.Rx
	if tx.CRC.Mode != c.fcs || rx.CRC.Mode != c.fcs {
		t.Fatalf("cycle %d: FCS mode sample %v, TX %v, RX %v", sys.Sim.Now(), c.fcs, tx.CRC.Mode, rx.CRC.Mode)
	}
	for _, core := range []*fcsCore{tx.CRC.core, rx.CRC.core} {
		if core != nil && core.mode != c.fcs {
			t.Fatalf("cycle %d: CRC core ran in %v under sample %v", sys.Sim.Now(), core.mode, c.fcs)
		}
	}
	if tx.Escape.ACCM != c.accm ||
		tx.Escape.SharedFlags != (c.ctrl&CtrlSharedFlags != 0) ||
		tx.Escape.IdleFill != (c.ctrl&CtrlIdleFill != 0) {
		t.Fatalf("cycle %d: Escape Generate disagrees with sample %+v", sys.Sim.Now(), c)
	}
}

func TestHostWriteLandsOnAClockEdge(t *testing.T) {
	sys := NewSystem(4)

	// A write that returns before Cycle n is what clock n runs with.
	sys.OAM.Write(RegFCSMode, 2)
	sys.Cycle()
	if sys.Tx.CRC.Mode != crc.FCS16Mode || sys.Rx.CRC.Mode != crc.FCS16Mode {
		t.Fatalf("FCS-16 write not visible in the next clock: TX %v RX %v", sys.Tx.CRC.Mode, sys.Rx.CRC.Mode)
	}
	sys.OAM.Write(RegACCM, 0x000A0000)
	sys.OAM.Write(RegCtrl, CtrlTxEnable|CtrlRxEnable|CtrlSharedFlags)
	sys.Cycle()
	if sys.Tx.Escape.ACCM != hdlc.ACCM(0x000A0000) || !sys.Tx.Escape.SharedFlags {
		t.Fatalf("ACCM/ctrl writes not visible in the next clock: %#x %t", sys.Tx.Escape.ACCM, sys.Tx.Escape.SharedFlags)
	}
	checkOneSample(t, sys)
	sys.OAM.Write(RegCtrl, CtrlRxEnable)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	sys.Cycle()
	if sys.Tx.Framer.FramesStarted != 0 {
		t.Fatal("framer started a frame in the clock after TxEnable was cleared")
	}

	// A host on another goroutine rewriting the three sampled registers
	// as fast as it can: wherever a write lands relative to Cycle, the
	// clock runs on one sample — transmitter and receiver on the same
	// FCS size, the CRC cores in the mode their units hold.
	stop := make(chan struct{})
	var host sync.WaitGroup
	host.Add(1)
	go func() {
		defer host.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.OAM.Write(RegFCSMode, 2+2*(i&1))
			sys.OAM.Write(RegACCM, i)
			sys.OAM.Write(RegCtrl, CtrlTxEnable|CtrlRxEnable|(i>>1&1)*CtrlSharedFlags|(i>>2&1)*CtrlIdleFill)
		}
	}()
	payload := make([]byte, 64)
	changes, last := 0, sys.cfg.gen
	// At least 50 000 clocks, and on until the host has interleaved ten
	// times (a single-CPU run only switches goroutines every few ms).
	for i := 0; i < 50_000 || (changes < 10 && i < 5_000_000); i++ {
		if i%64 == 0 {
			sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		}
		sys.Cycle()
		checkOneSample(t, sys)
		if sys.cfg.gen != last {
			changes, last = changes+1, sys.cfg.gen
		}
	}
	close(stop)
	host.Wait()
	if changes < 10 {
		t.Fatalf("only %d clocks saw a new sample: the host never interleaved", changes)
	}
}
