package p5

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

func TestTransmitterEmitsValidWireStream(t *testing.T) {
	for _, w := range []int{1, 4} {
		sim := &rtl.Sim{}
		regs := NewRegs()
		tx := NewTransmitter(sim, w, regs)
		sink := rtl.NewSink(tx.Out)
		sim.Add(sink)
		payload := []byte{0x7E, 0x00, 0x7D, 0x42, 0x99}
		tx.Framer.Enqueue(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		ok := sim.RunUntil(func() bool { return !tx.Busy() && sim.Drained() }, 10000)
		if !ok {
			t.Fatalf("w=%d: transmitter did not drain", w)
		}
		// The wire stream must tokenize and decode with the software
		// reference implementation.
		tk := hdlc.Tokenizer{FCS: crc.FCS32Mode}
		toks := tk.Feed(nil, sink.Data)
		if len(toks) != 1 || toks[0].Err != nil || !toks[0].FCSOK {
			t.Fatalf("w=%d: tokens = %+v", w, toks)
		}
		var f ppp.Frame
		if err := ppp.DecodeVerifiedBodyInto(&f, toks[0].Body, ppp.Config{}); err != nil {
			t.Fatalf("w=%d: decode: %v", w, err)
		}
		if f.Protocol != ppp.ProtoIPv4 || !bytes.Equal(f.Payload, payload) {
			t.Errorf("w=%d: decoded %v", w, &f)
		}
	}
}

func TestTransmitterMatchesSoftwareEncoderExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		w := []int{1, 4}[trial%2]
		payload := make([]byte, 1+rng.Intn(200))
		rng.Read(payload)
		sim := &rtl.Sim{}
		tx := NewTransmitter(sim, w, NewRegs())
		sink := rtl.NewSink(tx.Out)
		sim.Add(sink)
		tx.Framer.Enqueue(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		sim.RunUntil(func() bool { return !tx.Busy() && sim.Drained() }, 100000)

		want := ppp.ReferenceEncode(nil, &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: payload},
			ppp.Config{ACCM: hdlc.ACCMNone}, false)
		got := sink.Data
		// Trailing flag padding to word alignment is allowed.
		for len(got) > len(want) && got[len(got)-1] == hdlc.Flag {
			got = got[:len(got)-1]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d w=%d:\n got % x\nwant % x", trial, w, got, want)
		}
	}
}

func TestSystemLoopbackSingleFrame(t *testing.T) {
	for _, w := range []int{1, 4} {
		sys := NewSystem(w)
		payload := []byte{0xDE, 0xAD, 0x7E, 0x7D, 0xBE, 0xEF}
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		if !sys.RunUntilIdle(100000) {
			t.Fatalf("w=%d: system did not drain", w)
		}
		got := sys.Received()
		if len(got) != 1 {
			t.Fatalf("w=%d: received %d frames", w, len(got))
		}
		if got[0].Err != nil {
			t.Fatalf("w=%d: frame error: %v", w, got[0].Err)
		}
		if got[0].Frame.Protocol != ppp.ProtoIPv4 || !bytes.Equal(got[0].Frame.Payload, payload) {
			t.Errorf("w=%d: frame = %v", w, got[0].Frame)
		}
	}
}

func TestSystemLoopbackManyFramesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 4} {
		sys := NewSystem(w)
		var want [][]byte
		for i := 0; i < 15; i++ {
			p := make([]byte, 1+rng.Intn(300))
			for j := range p {
				if rng.Intn(5) == 0 {
					p[j] = []byte{0x7E, 0x7D}[rng.Intn(2)]
				} else {
					p[j] = byte(rng.Intn(256))
				}
			}
			want = append(want, p)
			sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: p})
		}
		if !sys.RunUntilIdle(1000000) {
			t.Fatalf("w=%d: system did not drain", w)
		}
		got := sys.Received()
		if len(got) != len(want) {
			t.Fatalf("w=%d: received %d frames, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("w=%d frame %d: %v", w, i, got[i].Err)
			}
			if !bytes.Equal(got[i].Frame.Payload, want[i]) {
				t.Errorf("w=%d frame %d payload mismatch", w, i)
			}
		}
	}
}

func TestSystemFCS16Mode(t *testing.T) {
	sys := NewSystem(4)
	sys.OAM.Write(RegFCSMode, 2)
	payload := []byte{1, 2, 3, 4, 5}
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
	if !sys.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	got := sys.Received()
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(got[0].Frame.Payload, payload) {
		t.Error("payload mismatch in FCS-16 mode")
	}
	// Body ends with a 2-byte FCS: header(4) + payload(5) + 2.
	if len(got[0].Body) != 11 {
		t.Errorf("body len = %d, want 11", len(got[0].Body))
	}
}

func TestSystemProgrammableAddress(t *testing.T) {
	// Program a MAPOS-style address; the receiver polices it.
	sys := NewSystem(4)
	sys.OAM.Write(RegAddress, 0x05)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{9}})
	if !sys.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	got := sys.Received()
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("got %+v", got)
	}
	if got[0].Frame.Address != 0x05 {
		t.Errorf("address = %#x", got[0].Frame.Address)
	}
	if v := sys.OAM.Read(RegAddress); v != 0x05 {
		t.Errorf("register readback = %#x", v)
	}
}

func TestSystemAddressRejection(t *testing.T) {
	sys := NewSystem(4)
	// Transmit with explicit address 0x05 while the receiver expects
	// 0x09 (both sides share the register file in loopback, so use the
	// per-job override to fake a foreign sender).
	sys.OAM.Write(RegAddress, 0x09)
	sys.Send(TxJob{Address: 0x05, Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	if !sys.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	got := sys.Received()
	if len(got) != 1 || got[0].Err != ppp.ErrBadAddress {
		t.Fatalf("got %+v, want address rejection", got)
	}
	// Promiscuous mode accepts it.
	sys2 := NewSystem(4)
	sys2.OAM.Write(RegAddress, 0x09)
	sys2.OAM.Write(RegCtrl, sys2.OAM.Read(RegCtrl)|ctrlAnyAddress)
	sys2.Send(TxJob{Address: 0x05, Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	sys2.RunUntilIdle(100000)
	got2 := sys2.Received()
	if len(got2) != 1 || got2[0].Err != nil {
		t.Fatalf("promiscuous got %+v", got2)
	}
}

func TestSystemAbortedFrameDropped(t *testing.T) {
	sys := NewSystem(4)
	sys.Send(
		TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3}, Abort: true},
		TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{4, 5, 6}},
	)
	if !sys.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	got := sys.Received()
	if len(got) != 2 {
		t.Fatalf("received %d frames", len(got))
	}
	if got[0].Err != errRxAborted {
		t.Errorf("frame 0 err = %v, want ErrRxAborted", got[0].Err)
	}
	if got[1].Err != nil || !bytes.Equal(got[1].Frame.Payload, []byte{4, 5, 6}) {
		t.Errorf("frame 1 = %+v", got[1])
	}
	if sys.Rx.Delineator.Aborts != 1 {
		t.Errorf("Aborts = %d", sys.Rx.Delineator.Aborts)
	}
}

func TestSystemBitErrorDetectedByCRC(t *testing.T) {
	sys := NewSystem(4)
	hits := 0
	sys.Line.Corrupt = func(f rtl.Flit, cycle int64) rtl.Flit {
		// Flip one bit in the first payload-carrying word only; avoid
		// flag/escape octets so framing survives and CRC must catch it.
		if hits == 0 && f.N == 4 {
			for i := 0; i < f.N; i++ {
				b := f.Byte(i)
				if b != hdlc.Flag && b != hdlc.Escape && b^0x01 != hdlc.Flag && b^0x01 != hdlc.Escape {
					f.SetByte(i, b^0x01)
					hits++
					break
				}
			}
		}
		return f
	}
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60}})
	if !sys.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	if hits != 1 {
		t.Fatal("corruption did not trigger")
	}
	got := sys.Received()
	if len(got) != 1 {
		t.Fatalf("received %d frames", len(got))
	}
	if got[0].Err == nil {
		t.Error("corrupted frame must be rejected")
	}
	if sys.Rx.CRC.FCSErrors != 1 {
		t.Errorf("FCSErrors = %d", sys.Rx.CRC.FCSErrors)
	}
	if sys.OAM.Read(RegRxFCSErr) != 1 {
		t.Error("OAM FCS error counter")
	}
}

func TestSystemInterrupts(t *testing.T) {
	sys := NewSystem(4)
	sys.OAM.Write(RegIntMask, intRxFrame|intTxDone)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3}})
	sys.RunUntilIdle(100000)
	if !sys.Regs.IRQ() {
		t.Fatal("IRQ not raised")
	}
	stat := sys.OAM.Read(RegIntStat)
	if stat&intRxFrame == 0 {
		t.Error("IntRxFrame not set")
	}
	if stat&intTxDone == 0 {
		t.Error("IntTxDone not set")
	}
	// Write-1-to-clear.
	sys.OAM.Write(RegIntStat, stat)
	if sys.Regs.IRQ() {
		t.Error("IRQ still pending after clear")
	}
}

func TestSystemOAMCounters(t *testing.T) {
	sys := NewSystem(4)
	for i := 0; i < 5; i++ {
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{0x7E}, 10)})
	}
	sys.RunUntilIdle(1000000)
	if v := sys.OAM.Read(regTxFrames); v != 5 {
		t.Errorf("TxFrames = %d", v)
	}
	if v := sys.OAM.Read(RegRxGood); v != 5 {
		t.Errorf("RxGood = %d", v)
	}
	if v := sys.OAM.Read(regTxEscaped); v < 50 {
		t.Errorf("TxEscaped = %d, want ≥ 50", v)
	}
	if v := sys.OAM.Read(RegRxBad); v != 0 {
		t.Errorf("RxBad = %d", v)
	}
}

func TestSystemTxDisable(t *testing.T) {
	sys := NewSystem(4)
	sys.OAM.Write(RegCtrl, ctrlRxEnable) // TX off
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	for i := 0; i < 100; i++ {
		sys.Cycle()
	}
	if got := sys.Received(); len(got) != 0 {
		t.Fatal("frame moved while TX disabled")
	}
	// Enable: the frame flows.
	sys.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable)
	sys.RunUntilIdle(100000)
	if got := sys.Received(); len(got) != 1 {
		t.Fatalf("received %d after enable", len(got))
	}
}

func TestReceiverRuntRejected(t *testing.T) {
	// A runt arises from a noise burst between flags; feed the
	// receiver a raw line stream containing one directly.
	sim := &rtl.Sim{}
	regs := NewRegs()
	src := &rtl.Source{}
	rx := NewReceiver(sim, 4, regs)
	src.Out = rx.In
	sim.Add(src)
	good := ppp.ReferenceEncode(nil, &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3, 4}},
		ppp.Config{}, false)
	line := []byte{hdlc.Flag, 0x01, 0x02, hdlc.Flag}
	line = append(line, good...)
	src.FeedBytes(line, 4)
	sim.RunUntil(func() bool { return src.Pending() == 0 && !rx.Busy() && sim.Drained() }, 100000)
	got := rx.Control.Queue
	if len(got) != 2 {
		t.Fatalf("received %d frames, want runt + good", len(got))
	}
	if got[0].Err != errRxRunt {
		t.Errorf("frame 0 = %+v, want runt", got[0])
	}
	if got[1].Err != nil {
		t.Errorf("frame 1 = %+v", got[1])
	}
	if rx.Control.Runts != 1 {
		t.Error("runt counter")
	}
}

func TestSystemMRUPolicing(t *testing.T) {
	sys := NewSystem(4)
	sys.OAM.Write(regMRU, 16)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{7}, 32)})
	sys.RunUntilIdle(100000)
	got := sys.Received()
	if len(got) != 1 || got[0].Err != ppp.ErrTooLong {
		t.Fatalf("got %+v, want MRU rejection", got)
	}
}

func TestSystemLineUtilizationAccounting(t *testing.T) {
	// 2.5 Gbps headline: at zero escape density the line carries
	// frame octets plus two flags per frame; cycles ≈ octets/W.
	sys := NewSystem(4)
	payload := bytes.Repeat([]byte{0x42}, 996) // body 1000, +FCS = 1004
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
	start := sys.Sim.Now()
	sys.RunUntilIdle(100000)
	cycles := sys.Sim.Now() - start
	// 1004 body octets + 2 flags = 1006 octets = 252 words; pipeline
	// depth adds a small constant.
	if cycles > 252+40 {
		t.Errorf("took %d cycles for a 1004-octet frame, want ≈ 252+fill", cycles)
	}
}

func TestFCS16ModeSwitchbackAndForth(t *testing.T) {
	sys := NewSystem(1)
	sys.OAM.Write(RegFCSMode, 2)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	sys.RunUntilIdle(100000)
	sys.OAM.Write(RegFCSMode, 4)
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{2}})
	sys.RunUntilIdle(100000)
	got := sys.Received()
	if len(got) != 2 || got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("got %+v", got)
	}
	if crc.Size(sys.OAM.Read(RegFCSMode)) != crc.FCS32Mode {
		t.Error("mode register readback")
	}
}

func TestSystemLoopbackAllWidths(t *testing.T) {
	// The scaling study's datapaths (16- and 64-bit) must run the full
	// loopback correctly too.
	payload := []byte{0x7E, 1, 2, 0x7D, 3, 4, 5, 0x7E, 0x7E, 9}
	for _, w := range []int{1, 2, 4, 8} {
		sys := NewSystem(w)
		for i := 0; i < 5; i++ {
			sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		}
		if !sys.RunUntilIdle(1000000) {
			t.Fatalf("w=%d did not drain", w)
		}
		got := sys.Received()
		if len(got) != 5 {
			t.Fatalf("w=%d: received %d", w, len(got))
		}
		for i, f := range got {
			if f.Err != nil || !bytes.Equal(f.Frame.Payload, payload) {
				t.Fatalf("w=%d frame %d: %+v", w, i, f)
			}
		}
	}
}

func TestTransmitterFirstWordLatencyFourCycles(t *testing.T) {
	// The paper's pipeline claim: the 8-bit transmitter (Control → CRC
	// → Escape Generate) puts its first line octet on the wire four
	// cycles after the frame enters, then sustains one word per cycle
	// (every inter-word gap is 1) for the rest of the frame.
	sim := &rtl.Sim{}
	regs := NewRegs()
	tx := NewTransmitter(sim, 1, regs)
	sink := rtl.NewSink(tx.Out)
	sim.Add(sink)
	tx.Framer.Enqueue(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if !sim.RunUntil(func() bool { return !tx.Busy() && sim.Drained() }, 10000) {
		t.Fatal("transmitter did not drain")
	}
	if sink.FirstCycle != 4 {
		t.Errorf("first word at cycle %d, want 4", sink.FirstCycle)
	}
	words := len(sink.Flits)
	if words < 2 {
		t.Fatalf("only %d words on the line", words)
	}
	if got := sink.GapCounts[1]; got != uint64(words-1) {
		t.Errorf("gaps = %v over %d words: pipeline bubbled", sink.GapCounts, words)
	}
	if sink.MaxGap != 1 {
		t.Errorf("MaxGap = %d, want 1 (back-to-back)", sink.MaxGap)
	}
	if sink.LastCycle != sink.FirstCycle+int64(words-1) {
		t.Errorf("LastCycle = %d, want %d", sink.LastCycle, sink.FirstCycle+int64(words-1))
	}
}

func TestOAMStatusCounterSaturation(t *testing.T) {
	sys := NewSystem(1)
	// Drive the live counter past the 16-bit status field.
	sys.Rx.Control.Good = 0x1ABCD
	sys.Tx.CRC.Frames = 0xFFFF // exactly at the ceiling: no overflow

	if v := sys.OAM.Read(RegRxGood); v != 0xFFFF {
		t.Errorf("RegRxGood = %#x, want saturation at 0xFFFF", v)
	}
	if v := sys.OAM.Read(regTxFrames); v != 0xFFFF {
		t.Errorf("RegTxFrames = %#x", v)
	}
	ovf := sys.OAM.Read(regCntOverflow)
	if ovf&ovfRxGood == 0 {
		t.Errorf("overflow latch %#x missing OvfRxGood", ovf)
	}
	if ovf&ovfTxFrames != 0 {
		t.Errorf("overflow latch %#x wrongly set for a counter at exactly 0xFFFF", ovf)
	}

	// W1C clears the latch...
	sys.OAM.Write(regCntOverflow, ovfRxGood)
	if v := sys.OAM.Read(regCntOverflow); v != 0 {
		t.Errorf("latch %#x after W1C, want 0", v)
	}
	// ...but the next read of the still-saturated counter re-asserts it.
	sys.OAM.Read(RegRxGood)
	if v := sys.OAM.Read(regCntOverflow); v&ovfRxGood == 0 {
		t.Error("latch not re-asserted while counter remains saturated")
	}
}

func TestSystemInstrumentExportsPipelineSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys := NewSystem(1)
	sys.Instrument(reg)
	for i := 0; i < 8; i++ {
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{0x7E}, 64)})
	}
	if !sys.RunUntilIdle(1_000_000) {
		t.Fatal("system did not drain")
	}
	sys.SyncTelemetry()
	snap := seriesValues(reg)
	for _, series := range []string{
		"p5_cycles_total",
		"p5_tx_frames_total",
		"p5_rx_frames_good_total",
		"p5_tx_escaped_octets_total",
		"p5_line_words_total",
		`p5_wire_occupied_cycles_total{wire="tx.line"}`,
		`p5_wire_stalls_total{wire="tx.body"}`,
		`p5_unit_busy_cycles_total{unit="framer"}`,
	} {
		if v, ok := snap[series]; !ok || v == 0 {
			t.Errorf("series %s = %v (present=%v), want nonzero", series, v, ok)
		}
	}
	// All-flag payload forces heavy escaping: the sorter high-water
	// gauge must have moved.
	if v := snap["p5_tx_sorter_highwater"]; v == 0 {
		t.Error("tx sorter high-water gauge never moved")
	}
	if v := snap["p5_rx_fcs_errors_total"]; v != 0 {
		t.Errorf("clean run exported %v FCS errors", v)
	}
}

func TestSystemFillLatencyGaugeFourCycles(t *testing.T) {
	// The paper's four-cycle sorter claim, asserted continuously: every
	// idle-to-busy transition of the 8-bit transmitter must measure a
	// fill latency of exactly four cycles through the System-level span
	// (TestTransmitterFirstWordLatencyFourCycles checks the same number
	// once, with a sink directly on the transmit wire).
	reg := telemetry.NewRegistry()
	sys := NewSystem(1)
	sys.Instrument(reg)
	if sys.FillLatency != -1 {
		t.Fatalf("FillLatency = %d before any span, want -1", sys.FillLatency)
	}
	for i := 0; i < 5; i++ {
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
		if !sys.RunUntilIdle(100000) {
			t.Fatalf("span %d did not drain", i)
		}
		if sys.FillLatency != 4 {
			t.Fatalf("span %d: fill latency %d cycles, want 4", i, sys.FillLatency)
		}
	}
	if sys.FillSpans != 5 {
		t.Errorf("FillSpans = %d, want 5", sys.FillSpans)
	}
	if h := sys.fillHist; h.Count() != 5 || h.Quantile(0.99) != 4 {
		t.Errorf("histogram count=%d p99=%d, want 5 and 4", h.Count(), h.Quantile(0.99))
	}
	sys.SyncTelemetry()
	snap := seriesValues(reg)
	if v, ok := snap["p5_tx_fill_latency_cycles"]; !ok || v != 4 {
		t.Errorf("fill gauge = %v (present=%v), want 4", v, ok)
	}
	if v := snap["p5_tx_fill_spans_total"]; v != 5 {
		t.Errorf("fill spans counter = %v, want 5", v)
	}
}

// seriesValues reads reg's series into a map of full series name
// (name plus label block) to value.
func seriesValues(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Series() {
		out[s.Full] = s.Value
	}
	return out
}
