package p5

import (
	"bytes"
	"errors"
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
		tx.Escape.SharedFlags != (c.ctrl&ctrlSharedFlags != 0) ||
		tx.Escape.IdleFill != (c.ctrl&ctrlIdleFill != 0) {
		t.Fatalf("cycle %d: Escape Generate disagrees with sample %+v", sys.Sim.Now(), c)
	}
}

func TestHostWriteLandsOnAClockEdge(t *testing.T) {
	sys := NewSystem(4)
	payload := make([]byte, 64)

	// A write that returns before Cycle n is what clock n runs with.
	sys.OAM.Write(RegFCSMode, 2)
	sys.Cycle()
	if sys.Tx.CRC.Mode != crc.FCS16Mode || sys.Rx.CRC.Mode != crc.FCS16Mode {
		t.Fatalf("FCS-16 write not visible in the next clock: TX %v RX %v", sys.Tx.CRC.Mode, sys.Rx.CRC.Mode)
	}
	sys.OAM.Write(regACCM, 0x000A0000)
	sys.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable|ctrlSharedFlags)
	sys.Cycle()
	if sys.Tx.Escape.ACCM != hdlc.ACCM(0x000A0000) || !sys.Tx.Escape.SharedFlags {
		t.Fatalf("ACCM/ctrl writes not visible in the next clock: %#x %t", sys.Tx.Escape.ACCM, sys.Tx.Escape.SharedFlags)
	}
	checkOneSample(t, sys)
	sys.OAM.Write(RegCtrl, ctrlRxEnable)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
	sys.Cycle()
	if sys.Tx.Framer.size != 0 {
		t.Fatal("framer started a frame in the clock after TxEnable was cleared")
	}

	// The FCS size switches in the clock between RxCRC's verdict on a
	// frame and RxControl taking its end: the frame is stripped by the
	// size it was checked under, both ways round.
	for _, sizes := range [][2]uint32{{4, 2}, {2, 4}} {
		sys := NewSystem(4)
		sys.OAM.Write(RegFCSMode, sizes[0])
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		for f, ok := sys.Rx.CRC.Out.Peek(); !ok || !f.EOF; f, ok = sys.Rx.CRC.Out.Peek() {
			sys.Cycle() // until RxCRC's verdict on the frame end waits for RxControl
		}
		sys.OAM.Write(RegFCSMode, sizes[1])
		sys.Cycle()
		got := sys.Received()
		if len(got) != 1 || got[0].Err != nil || !bytes.Equal(got[0].Frame.Payload, payload) {
			t.Fatalf("FCS-%d frame with FCS-%d written before its delivery: %+v", 8*sizes[0], 8*sizes[1], got)
		}
	}

	// A host on another goroutine rewriting the sampled registers as fast
	// as it can: wherever a write lands relative to Cycle, the clock runs
	// on one sample — transmitter and receiver on the same FCS size, the
	// CRC cores in the mode their units hold — and a frame RxCRC passed
	// is never failed on its FCS again under another size.
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
			sys.OAM.Write(regACCM, i)
			sys.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable|(i>>1&1)*ctrlSharedFlags|(i>>2&1)*ctrlIdleFill)
			sys.OAM.Write(RegAddress, 0xFF-(i>>3&1)*0xF0)
			sys.OAM.Write(regControl, 0x03^(i>>4&1)*0x10)
			sys.OAM.Write(regMRU, 1500-(i>>5&1)*1480)
		}
	}()
	changes, last, delivered := 0, sys.cfg.gen, 0
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
		for _, f := range sys.Received() {
			if errors.Is(f.Err, ppp.ErrBadFCS) {
				t.Fatalf("cycle %d: a frame RxCRC passed was failed on its FCS: % x", sys.Sim.Now(), f.Body)
			}
			if f.Err == nil && !bytes.Equal(f.Frame.Payload, payload) {
				t.Fatalf("cycle %d: good frame delivered %d octets % x, sent %d zeros", sys.Sim.Now(), len(f.Frame.Payload), f.Frame.Payload, len(payload))
			}
			delivered++
		}
	}
	close(stop)
	host.Wait()
	if changes < 10 {
		t.Fatalf("only %d clocks saw a new sample: the host never interleaved", changes)
	}
	if delivered == 0 {
		t.Fatal("no frame was delivered under the hammering host")
	}
}
