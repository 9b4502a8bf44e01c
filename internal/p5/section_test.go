package p5

import (
	"bytes"
	"testing"

	"repro/internal/hdlc"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/rtl"
	"repro/internal/sonet"
)

// newIdleFillSection is a 32-bit system over STM-16 with continuous line
// fill, so the section always has octets to carry (real POS).
func newIdleFillSection(t *testing.T) *System {
	t.Helper()
	sys := NewSectionSystem(4, sonet.STM16)
	sys.OAM.Write(RegCtrl, sys.OAM.Read(RegCtrl)|ctrlIdleFill)
	return sys
}

func TestSectionSystemEndToEnd(t *testing.T) {
	sys := newIdleFillSection(t)
	sec := sys.Section
	gen := netsim.NewGen(5, netsim.IMIX{}, 0.03)
	var want [][]byte
	for i := 0; i < 30; i++ {
		d := gen.Next()
		want = append(want, d)
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	// Both directions stage at most the frame in hand: the transmit side
	// by backpressure, the receive side because a frame time drains it.
	var stagedHW, rxHW int
	for i := 0; i < 10_000_000 && len(sys.Rx.Control.Queue) < len(want); i++ {
		sys.Cycle()
		stagedHW = max(stagedHW, len(sec.staged))
		rxHW = max(rxHW, len(sec.rx)-sec.head)
	}
	got := sys.Received()
	if len(got) < len(want) {
		t.Fatalf("delivered %d/%d", len(got), len(want))
	}
	for i, f := range got[:len(want)] {
		if f.Err != nil {
			t.Fatalf("frame %d: %v", i, f.Err)
		}
		if !bytes.Equal(f.Frame.Payload, want[i]) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if sec.Z.Deframer().B1Errors != 0 {
		t.Error("parity errors on a clean channel")
	}
	if limit := sonet.STM16.PayloadBytes(); stagedHW > limit || rxHW > limit || rxHW == 0 {
		t.Errorf("staging high water: tx %d, rx %d octets, want ≤ one frame payload (%d)", stagedHW, rxHW, limit)
	}
}

func TestSectionSystemOverheadThrottlesGoodput(t *testing.T) {
	// Saturate the transmitter: the SONET overhead tax must show up as
	// goodput ≈ payload/line ratio (~96.6%), enforced by backpressure,
	// not data loss.
	sys := newIdleFillSection(t)
	payload := bytes.Repeat([]byte{0x42}, 1496)
	// Enough traffic to span many transport frames, so pipeline fill
	// and drain latency amortise away; goodput is measured over the
	// steady-state middle (frame 60 → frame 540).
	const n = 600
	for i := 0; i < n; i++ {
		sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
	}
	var startCycle int64
	for len(sys.Rx.Control.Queue) < 540 {
		if sys.Sim.Now() > 50_000_000 {
			t.Fatalf("delivered %d/%d", len(sys.Rx.Control.Queue), n)
		}
		if startCycle == 0 && len(sys.Rx.Control.Queue) >= 60 {
			startCycle = sys.Sim.Now()
		}
		sys.Cycle()
	}
	cycles := float64(sys.Sim.Now() - startCycle)
	payloadBits := float64(480 * (len(payload) + 8) * 8) // + header+FCS
	gotBitsPerCycle := payloadBits / cycles
	// Ideal without SONET overhead: 32 bits/cycle (minus PPP flags);
	// with the transport tax: ×(PayloadBytes/FrameBytes) ≈ ×0.966.
	// Delivery arrives in per-transport-frame bursts, so the window
	// edges add ±1 SONET frame of quantisation (~±4% over 20 frames).
	ratio := float64(sonet.STM16.PayloadBytes()) / float64(sonet.STM16.FrameBytes())
	ideal := 32 * ratio
	if gotBitsPerCycle < ideal*0.93 || gotBitsPerCycle > ideal*1.05 {
		t.Errorf("goodput %.2f bits/cycle, want ≈ %.2f ±5%% (overhead ratio %.4f)",
			gotBitsPerCycle, ideal, ratio)
	}
	// The throttle is backpressure, visible at the section's input: the
	// line finds the wire into the section still full.
	if sys.Section.in.Stalls == 0 {
		t.Error("no backpressure recorded at the section")
	}
}

func TestSectionSystemIdleLinkCarriesFlags(t *testing.T) {
	sys := newIdleFillSection(t)
	for i := 0; i < 2*sonet.STM16.FrameBytes()/sys.W; i++ {
		sys.Cycle()
	}
	if got := sys.Section.A.Framer().FramesBuilt; got < 2 {
		t.Fatalf("frames = %d", got)
	}
	// No data queued: every payload octet is inter-frame fill, and the
	// P5's idle fill supplies it, so the far end stays in frame.
	if got := sys.Section.Z.Deframer().FramesOK; got < 1 {
		t.Errorf("deframed %d", got)
	}
	if got := sys.Received(); len(got) != 0 {
		t.Errorf("an idle link delivered %d frames", len(got))
	}
}

// sectionCorpus is the job list both differential tests send: IMIX at
// an escape density that exercises both sorters, in both widths' reach.
func sectionCorpus() []TxJob {
	gen := netsim.NewGen(9, netsim.IMIX{}, 0.05)
	jobs := make([]TxJob, 40)
	for i := range jobs {
		jobs[i] = TxJob{Protocol: ppp.ProtoIPv4, Payload: gen.Next()}
	}
	return jobs
}

// TestSectionSystemMatchesLoopback: the same jobs through the loopback
// System and the section System deliver identical frames — the section
// delays octets, it never changes them.
func TestSectionSystemMatchesLoopback(t *testing.T) {
	for _, c := range []struct {
		w     int
		level sonet.Level
	}{{1, sonet.STM1}, {4, sonet.STM1}, {4, sonet.STM16}} {
		run := func(sys *System) []RxFrame {
			sys.Send(sectionCorpus()...)
			if !sys.RunUntilIdle(20_000_000) {
				t.Fatalf("w=%d STM-%d: system did not drain", c.w, c.level)
			}
			var out []RxFrame
			for _, f := range sys.Received() {
				if f.Err != nil {
					t.Fatalf("w=%d STM-%d: frame %d: %v", c.w, c.level, len(out), f.Err)
				}
				fr := *f.Frame
				fr.Payload = bytes.Clone(fr.Payload)
				out = append(out, RxFrame{Frame: &fr, Body: bytes.Clone(f.Body)})
			}
			return out
		}
		loop, sec := run(NewSystem(c.w)), run(NewSectionSystem(c.w, c.level))
		if len(loop) != len(sectionCorpus()) || len(sec) != len(loop) {
			t.Fatalf("w=%d STM-%d: loopback delivered %d, section %d of %d", c.w, c.level, len(loop), len(sec), len(sectionCorpus()))
		}
		for i := range loop {
			l, s := loop[i], sec[i]
			if l.Frame.Protocol != s.Frame.Protocol || !bytes.Equal(l.Frame.Payload, s.Frame.Payload) || !bytes.Equal(l.Body, s.Body) {
				t.Fatalf("w=%d STM-%d: frame %d differs:\nloopback % x\nsection  % x", c.w, c.level, i, l.Body, s.Body)
			}
		}
	}
}

// TestSectionCarriesLoopbackLineOctets: on a clean section the octets
// the far deframer recovers are the loopback System's line octets; only
// the inter-frame flag fill differs (the framer pads a short frame with
// flags), so both streams are compared with each run of flags collapsed
// to one.
func TestSectionCarriesLoopbackLineOctets(t *testing.T) {
	var line, deframed []byte
	loop := NewSystem(4)
	loop.Line.Corrupt = func(f rtl.Flit, _ int64) rtl.Flit {
		line = f.Bytes(line)
		return f
	}
	sec := NewSectionSystem(4, sonet.STM1)
	df := sec.Section.Z.Deframer()
	payload := df.Payload
	df.Payload = func(p []byte, off int) {
		deframed = append(deframed, p...)
		payload(p, off)
	}
	for _, sys := range []*System{loop, sec} {
		sys.Send(sectionCorpus()...)
		if !sys.RunUntilIdle(20_000_000) {
			t.Fatal("system did not drain")
		}
	}
	if a, b := collapseFlags(line), collapseFlags(deframed); !bytes.Equal(a, b) {
		t.Fatalf("deframed octets differ from the loopback line: %d vs %d octets after flag collapse", len(b), len(a))
	}
	if fill := sec.Section.A.Framer().FillOctets; fill == 0 {
		t.Error("the section carried no flag fill: the comparison proved nothing about it")
	}
}

// collapseFlags replaces every run of flags with one and trims the runs
// at either end.
func collapseFlags(p []byte) []byte {
	var out []byte
	for i, b := range p {
		if b == hdlc.Flag && (i == 0 || p[i-1] == hdlc.Flag) {
			continue
		}
		out = append(out, b)
	}
	return bytes.TrimRight(out, string([]byte{hdlc.Flag}))
}
