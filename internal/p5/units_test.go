package p5

import (
	"bytes"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/rtl"
)

// --- Framer ---

func runFramer(t *testing.T, w int, jobs ...TxJob) []rtl.Flit {
	t.Helper()
	sim := &rtl.Sim{}
	out := sim.Wire("out")
	fr := &Framer{Out: out, W: w, Regs: NewRegs()}
	sink := rtl.NewSink(out)
	sim.Add(fr, sink)
	fr.Enqueue(jobs...)
	if !sim.RunUntil(func() bool { return !fr.busy() && sim.Drained() }, 100000) {
		t.Fatal("framer did not drain")
	}
	return sink.Flits
}

func TestFramerHeaderLayout(t *testing.T) {
	flits := runFramer(t, 4, TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{0xAA, 0xBB}})
	var body []byte
	for _, f := range flits {
		body = f.Bytes(body)
	}
	want := []byte{0xFF, 0x03, 0x00, 0x21, 0xAA, 0xBB}
	if !bytes.Equal(body, want) {
		t.Errorf("body = % x, want % x", body, want)
	}
	if !flits[0].SOF || !flits[len(flits)-1].EOF {
		t.Error("SOF/EOF markers")
	}
}

func TestFramerAddressOverride(t *testing.T) {
	flits := runFramer(t, 1, TxJob{Address: 0x0B, Protocol: ppp.ProtoIPv4})
	if flits[0].Byte(0) != 0x0B {
		t.Errorf("address = %#x", flits[0].Byte(0))
	}
}

func TestFramerEmitsOneWordPerCycle(t *testing.T) {
	sim := &rtl.Sim{}
	out := sim.Wire("out")
	fr := &Framer{Out: out, W: 4, Regs: NewRegs()}
	sink := rtl.NewSink(out)
	sim.Add(fr, sink)
	fr.Enqueue(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{1}, 96)})
	sim.RunUntil(func() bool { return !fr.busy() && sim.Drained() }, 1000)
	// 100 body octets = 25 words; allow the 2-cycle pipe ends.
	if n := sim.Now(); n > 25+3 {
		t.Errorf("framer took %d cycles for 25 words", n)
	}
}

func TestFramerRespectsTxDisable(t *testing.T) {
	sim := &rtl.Sim{}
	out := sim.Wire("out")
	regs := NewRegs()
	oam := &OAM{Regs: regs}
	oam.Write(RegCtrl, ctrlRxEnable) // tx off
	fr := &Framer{Out: out, W: 4, Regs: regs}
	sink := rtl.NewSink(out)
	sim.Add(fr, sink)
	fr.Enqueue(TxJob{Protocol: ppp.ProtoIPv4})
	for i := 0; i < 50; i++ {
		sim.Cycle()
	}
	if len(sink.Flits) != 0 {
		t.Fatal("framer ran while disabled")
	}
	oam.Write(RegCtrl, ctrlTxEnable)
	for i := 0; i < 50; i++ {
		sim.Cycle()
	}
	if len(sink.Flits) == 0 {
		t.Fatal("framer did not resume")
	}
}

// --- TxCRC / RxCRC ---

func TestTxCRCAppendsValidFCS(t *testing.T) {
	for _, w := range []int{1, 4} {
		for _, mode := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
			sim := &rtl.Sim{}
			src := &rtl.Source{Out: sim.Wire("in")}
			out := sim.Wire("out")
			u := &TxCRC{In: src.Out, Out: out, W: w, Mode: mode}
			sink := rtl.NewSink(out)
			sim.Add(src, u, sink)
			body := []byte{0xFF, 0x03, 0x00, 0x21, 1, 2, 3, 4, 5}
			src.FeedBytes(body, w)
			sim.RunUntil(func() bool { return src.Pending() == 0 && !u.busy() && sim.Drained() }, 10000)
			if !mode.Check(sink.Data) {
				t.Errorf("w=%d %v: FCS check failed over % x", w, mode, sink.Data)
			}
			if len(sink.Data) != len(body)+mode.Bytes() {
				t.Errorf("w=%d %v: length %d", w, mode, len(sink.Data))
			}
			// EOF must ride on the final FCS flit.
			last := sink.Flits[len(sink.Flits)-1]
			if !last.EOF {
				t.Errorf("w=%d %v: EOF not on final flit", w, mode)
			}
		}
	}
}

func TestTxCRCPerFrameReset(t *testing.T) {
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	out := sim.Wire("out")
	u := &TxCRC{In: src.Out, Out: out, W: 4}
	sink := rtl.NewSink(out)
	sim.Add(src, u, sink)
	src.FeedBytes([]byte{1, 2, 3, 4}, 4)
	src.FeedBytes([]byte{1, 2, 3, 4}, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && !u.busy() && sim.Drained() }, 10000)
	// Two identical frames → two identical 8-octet outputs.
	if len(sink.Data) != 16 || !bytes.Equal(sink.Data[:8], sink.Data[8:]) {
		t.Errorf("frames differ: % x", sink.Data)
	}
}

func TestRxCRCTagsBadFrame(t *testing.T) {
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	out := sim.Wire("out")
	u := &RxCRC{In: src.Out, Out: out, W: 4}
	sink := rtl.NewSink(out)
	sim.Add(src, u, sink)
	good := crc.FCS32Mode.Append([]byte{1, 2, 3, 4, 5})
	bad := append([]byte(nil), good...)
	bad[0] ^= 0x80
	src.FeedBytes(good, 4)
	src.FeedBytes(bad, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && sim.Drained() }, 10000)
	var eofs []rtl.Flit
	for _, f := range sink.Flits {
		if f.EOF {
			eofs = append(eofs, f)
		}
	}
	if len(eofs) != 2 {
		t.Fatalf("eof flits = %d", len(eofs))
	}
	if eofs[0].Err {
		t.Error("good frame tagged bad")
	}
	if !eofs[1].Err {
		t.Error("bad frame not tagged")
	}
	if u.FCSErrors != 1 {
		t.Errorf("FCSErrors = %d", u.FCSErrors)
	}
}

// --- Delineator ---

func runDelineator(t *testing.T, w int, line []byte) ([]rtl.Flit, *delineator) {
	t.Helper()
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	out := sim.Wire("out")
	dl := &delineator{In: src.Out, Out: out, W: w}
	sink := rtl.NewSink(out)
	sim.Add(src, dl, sink)
	src.FeedBytes(line, w)
	if !sim.RunUntil(func() bool { return src.Pending() == 0 && !dl.busy() && sim.Drained() }, 100000) {
		t.Fatal("delineator did not drain")
	}
	return sink.Flits, dl
}

func TestDelineatorCarvesFrames(t *testing.T) {
	line := []byte{0x7E, 1, 2, 3, 0x7E, 0x7E, 4, 5, 0x7E}
	flits, dl := runDelineator(t, 4, line)
	frames := framesOf(flits)
	if len(frames) != 2 || !bytes.Equal(frames[0], []byte{1, 2, 3}) || !bytes.Equal(frames[1], []byte{4, 5}) {
		t.Fatalf("frames = % x", frames)
	}
	if dl.FlagsSeen != 4 {
		t.Errorf("FlagsSeen=%d", dl.FlagsSeen)
	}
}

func TestDelineatorIgnoresLeadingGarbage(t *testing.T) {
	line := []byte{0xAA, 0xBB, 0x7E, 9, 8, 0x7E}
	frames := framesOf(mustFlits(t, line))
	if len(frames) != 1 || !bytes.Equal(frames[0], []byte{9, 8}) {
		t.Fatalf("frames = % x", frames)
	}
}

func mustFlits(t *testing.T, line []byte) []rtl.Flit {
	t.Helper()
	flits, _ := runDelineator(t, 4, line)
	return flits
}

func TestDelineatorAbortMark(t *testing.T) {
	line := []byte{0x7E, 1, 2, 0x7D, 0x7E, 3, 4, 5, 6, 0x7E}
	flits, dl := runDelineator(t, 4, line)
	var aborted, clean int
	for _, f := range flits {
		if f.EOF {
			if f.Abort {
				aborted++
			} else {
				clean++
			}
		}
	}
	if aborted != 1 || clean != 1 {
		t.Errorf("aborted=%d clean=%d", aborted, clean)
	}
	if dl.Aborts != 1 {
		t.Errorf("Aborts = %d", dl.Aborts)
	}
}

func TestDelineatorOverrunMarksFrame(t *testing.T) {
	// A stalled consumer forces the tiny buffer to overflow; the frame
	// must be marked, not silently truncated.
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	out := sim.Wire("out")
	dl := &delineator{In: src.Out, Out: out, W: 4}
	dl.fifo.reserve(8)
	// No consumer for out: it fills after one flit and stalls.
	sim.Add(src, dl)
	line := hdlc.ReferenceEncode(nil, bytes.Repeat([]byte{0x42}, 100), hdlc.ACCMNone, false)
	src.FeedBytes(line, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 }, 100000)
	if dl.Overruns == 0 {
		t.Error("overrun not detected")
	}
}

// --- OAM ---

func TestOAMRegisterFileDefaults(t *testing.T) {
	r := NewRegs()
	if r.ctrl&ctrlTxEnable == 0 || r.ctrl&ctrlRxEnable == 0 || r.ctrl&CtrlLoopback != 0 {
		t.Error("control defaults")
	}
	if r.address != 0xFF || r.control != 0x03 {
		t.Error("framing defaults")
	}
	if r.fcsMode != crc.FCS32Mode || r.mru != 1500 {
		t.Error("fcs/mru defaults")
	}
	if r.accm != hdlc.ACCMNone {
		t.Error("accm default must be 0 for octet-synchronous links")
	}
}

func TestOAMWriteReadback(t *testing.T) {
	oam := &OAM{Regs: NewRegs()}
	cases := []struct {
		addr uint32
		val  uint32
	}{
		{RegCtrl, ctrlTxEnable | CtrlLoopback},
		{RegAddress, 0x0B},
		{regControl, 0x13},
		{regACCM, 0xFFFF0000},
		{regMRU, 9000 & 0xFFFF},
		{RegIntMask, intRxFrame},
	}
	for _, c := range cases {
		oam.Write(c.addr, c.val)
		if got := oam.Read(c.addr); got != c.val {
			t.Errorf("reg %#x: wrote %#x read %#x", c.addr, c.val, got)
		}
	}
	// Unknown register reads as zero, writes are ignored.
	oam.Write(0xFFC, 7)
	if oam.Read(0xFFC) != 0 {
		t.Error("unknown register")
	}
}

func TestOAMInterruptMaskAndClear(t *testing.T) {
	oam := &OAM{Regs: NewRegs()}
	oam.Regs.raiseInt(intRxFrame | intTxDone)
	if oam.Regs.IRQ() {
		t.Error("IRQ asserted with empty mask")
	}
	oam.Write(RegIntMask, intRxFrame)
	if !oam.Regs.IRQ() {
		t.Error("IRQ not asserted")
	}
	// Clearing only the masked bit deasserts.
	oam.Write(RegIntStat, intRxFrame)
	if oam.Regs.IRQ() {
		t.Error("IRQ stuck after clear")
	}
	if oam.Read(RegIntStat) != intTxDone {
		t.Error("unrelated status bit lost")
	}
}

func TestOAMFCSModeEncoding(t *testing.T) {
	oam := &OAM{Regs: NewRegs()}
	oam.Write(RegFCSMode, 2)
	if oam.Regs.fcsMode != crc.FCS16Mode {
		t.Error("FCS16 write")
	}
	oam.Write(RegFCSMode, 99) // anything else selects FCS32
	if oam.Regs.fcsMode != crc.FCS32Mode {
		t.Error("FCS32 fallback")
	}
}

// --- RxControl ---

func TestRxControlStripsAndDecodes(t *testing.T) {
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	rc := &RxControl{In: src.Out, Regs: NewRegs()}
	sim.Add(src, rc)
	body := ppp.ReferenceEncodeBody(nil, &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: []byte{5, 6}}, ppp.Config{})
	src.FeedBytes(body, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && sim.Drained() }, 1000)
	if len(rc.Queue) != 1 || rc.Queue[0].Err != nil {
		t.Fatalf("queue = %+v", rc.Queue)
	}
	if !bytes.Equal(rc.Queue[0].Frame.Payload, []byte{5, 6}) {
		t.Error("payload")
	}
	if rc.Good != 1 || rc.Bad != 0 {
		t.Error("counters")
	}
}

func TestRxControlDeliverCallback(t *testing.T) {
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	var got []RxFrame
	rc := &RxControl{In: src.Out, Regs: NewRegs(), Deliver: func(f RxFrame) { got = append(got, f) }}
	sim.Add(src, rc)
	body := ppp.ReferenceEncodeBody(nil, &ppp.Frame{Protocol: ppp.ProtoIPv4}, ppp.Config{})
	src.FeedBytes(body, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && sim.Drained() }, 1000)
	if len(got) != 1 || len(rc.Queue) != 0 {
		t.Fatalf("callback=%d queue=%d", len(got), len(rc.Queue))
	}
}

// --- Line ---

func TestLineCorruptHook(t *testing.T) {
	sim := &rtl.Sim{}
	in := sim.Wire("in")
	out := sim.Wire("out")
	var cycles []int64
	l := &Line{In: in, Out: out, Corrupt: func(f rtl.Flit, c int64) rtl.Flit {
		cycles = append(cycles, c)
		f.SetByte(0, 0xEE)
		return f
	}}
	src := &rtl.Source{Out: in}
	sink := rtl.NewSink(out)
	sim.Add(src, l, sink)
	src.Feed(rtl.FlitOf([]byte{1, 2, 3, 4}))
	sim.RunUntil(func() bool { return len(sink.Flits) == 1 }, 100)
	if sink.Flits[0].Byte(0) != 0xEE {
		t.Error("corruption not applied")
	}
	if l.Words != 1 {
		t.Error("word counter")
	}
}

// --- Shared-memory descriptor rings ---

func TestRingBasics(t *testing.T) {
	r := newRing[int](3)
	if len(r.slots) != 3 || r.count() != 0 {
		t.Fatal("fresh ring")
	}
	for i := 1; i <= 3; i++ {
		if !r.post(i) {
			t.Fatalf("post %d refused", i)
		}
	}
	if r.post(4) {
		t.Fatal("overfull post accepted")
	}
	if !r.postOrDrop(4) == false || r.Drops != 1 {
		t.Fatal("drop accounting")
	}
	for i := 1; i <= 3; i++ {
		v, ok := r.poll()
		if !ok || v != i {
			t.Fatalf("poll %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := r.poll(); ok {
		t.Fatal("poll from empty")
	}
	if r.HighWater != 3 {
		t.Errorf("HighWater = %d", r.HighWater)
	}
	// Wraparound reuse.
	for i := 0; i < 10; i++ {
		if !r.post(i) {
			t.Fatal("post after drain")
		}
		if v, ok := r.poll(); !ok || v != i {
			t.Fatal("wrap poll")
		}
	}
}

func TestSystemWithRings(t *testing.T) {
	sys := NewSystem(4)
	tx, rx := sys.UseRings(4, 4)
	// Host posts more than the ring holds: excess is refused and the
	// host re-posts as the P5 drains — end-to-end flow control.
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0x7E, 0x7D}
	}
	posted := 0
	var got []RxFrame
	for cycles := 0; cycles < 100000 && len(got) < len(payloads); cycles++ {
		if posted < len(payloads) {
			if tx.post(TxJob{Protocol: ppp.ProtoIPv4, Payload: payloads[posted]}) {
				posted++
			}
		}
		sys.Cycle()
		if f, ok := rx.poll(); ok {
			got = append(got, f)
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("delivered %d/%d", len(got), len(payloads))
	}
	for i, f := range got {
		if f.Err != nil || !bytes.Equal(f.Frame.Payload, payloads[i]) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if rx.Drops != 0 {
		t.Errorf("unexpected rx drops: %d", rx.Drops)
	}
}

func TestSystemRxRingOverflowDropsAndInterrupts(t *testing.T) {
	sys := NewSystem(4)
	_, rx := sys.UseRings(16, 2)
	sys.OAM.Write(RegIntMask, intRxError)
	// Never poll rx: the 2-slot ring overflows.
	for i := 0; i < 8; i++ {
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{byte(i)}})
	}
	sys.RunUntilIdle(1000000)
	if rx.Drops == 0 {
		t.Fatal("no drops on overflowing rx ring")
	}
	if rx.count() != 2 {
		t.Errorf("ring holds %d", rx.count())
	}
	if !sys.Regs.IRQ() {
		t.Error("overflow must raise IntRxError")
	}
}
