package p5

import (
	"bytes"
	"testing"

	"repro/internal/ppp"
	"repro/internal/rtl"
)

// The point-to-point P5 pair is a test harness: nothing outside tests
// builds one. TestPairCountsGolden pins its simulated counts.

// Endpoint is one side of a point-to-point P5 link: its own register
// file and OAM, transmitter and receiver — two of these, cross-
// connected, model the real deployment (the loopback System shares one
// register file and is for self-test).
type Endpoint struct {
	Regs *Regs
	OAM  *OAM
	Tx   *Transmitter
	Rx   *Receiver

	cfg config // this clock's sample of Regs
}

// Send queues datagrams at this endpoint.
func (e *Endpoint) Send(jobs ...TxJob) { e.Tx.Framer.Enqueue(jobs...) }

// Received drains this endpoint's receive queue; the frames follow
// RxFrame's ownership rule.
func (e *Endpoint) Received() []RxFrame { return e.Rx.Control.drain() }

// Busy reports in-flight octets at this endpoint.
func (e *Endpoint) Busy() bool { return e.Tx.Busy() || e.Rx.Busy() }

// Pair is two P5 endpoints on one clock, cross-connected by two
// unidirectional lines. Setting an endpoint's CtrlLoopback register bit
// steers its transmit line back into its own receiver (local loopback
// self-test), exactly what the OAM control bit is for.
type Pair struct {
	Sim  *rtl.Sim
	A, B *Endpoint

	lineAB, lineBA *steer
}

// steer routes a line's output to the peer or, under loopback, back to
// the sender's own receiver.
type steer struct {
	in       *rtl.Wire
	peer     *rtl.Wire
	self     *rtl.Wire
	src      *config // the sending endpoint's register sample
	Corrupt  func(f rtl.Flit, cycle int64) rtl.Flit
	cycle    int64
	Words    uint64
	Returned uint64 // words steered back by loopback
}

// Eval implements rtl.Module.
func (s *steer) Eval() {
	f, ok := s.in.Peek()
	if !ok {
		return
	}
	dst := s.peer
	loop := s.src.ctrl&CtrlLoopback != 0
	if loop {
		dst = s.self
	}
	if !dst.CanPush() {
		return
	}
	s.in.Take()
	if s.Corrupt != nil {
		f = s.Corrupt(f, s.cycle)
	}
	s.Words++
	if loop {
		s.Returned++
	}
	dst.Push(f)
}

// Tick is the unit's clocked half: rtl.Sim.Add picks it up.
func (s *steer) Tick() { s.cycle++ }

// NewPair builds a width-w cross-connected pair.
func NewPair(w int) *Pair {
	p := &Pair{Sim: &rtl.Sim{}}
	regsA, regsB := NewRegs(), NewRegs()

	p.A = &Endpoint{Regs: regsA}
	p.B = &Endpoint{Regs: regsB}

	txA := NewTransmitter(p.Sim, w, regsA)
	txA.Framer.cfg = &p.A.cfg
	sAB := &steer{in: txA.Out, src: &p.A.cfg}
	p.Sim.Add(sAB)
	rxB := NewReceiver(p.Sim, w, regsB)
	rxB.Control.cfg = &p.B.cfg

	txB := NewTransmitter(p.Sim, w, regsB)
	txB.Framer.cfg = &p.B.cfg
	sBA := &steer{in: txB.Out, src: &p.B.cfg}
	p.Sim.Add(sBA)
	rxA := NewReceiver(p.Sim, w, regsA)
	rxA.Control.cfg = &p.A.cfg

	sAB.peer = rxB.In
	sAB.self = rxA.In
	sBA.peer = rxA.In
	sBA.self = rxB.In

	p.lineAB, p.lineBA = sAB, sBA
	p.A.Tx, p.A.Rx = txA, rxA
	p.B.Tx, p.B.Rx = txB, rxB
	p.A.OAM = &OAM{Regs: regsA, tx: txA, rx: rxA}
	p.B.OAM = &OAM{Regs: regsB, tx: txB, rx: rxB}
	clockConfig(regsA, &p.A.cfg, txA, rxA) // reset values
	clockConfig(regsB, &p.B.cfg, txB, rxB)
	return p
}

// Cycle advances the pair one clock.
func (p *Pair) Cycle() {
	clockConfig(p.A.Regs, &p.A.cfg, p.A.Tx, p.A.Rx)
	clockConfig(p.B.Regs, &p.B.cfg, p.B.Tx, p.B.Rx)
	p.Sim.Cycle()
}

// busy reports in-flight octets anywhere in the pair; it stops at the
// first unit or wire that holds one.
func (p *Pair) busy() bool { return p.A.Busy() || p.B.Busy() || !p.Sim.Drained() }

// RunUntilIdle clocks until both endpoints drain.
func (p *Pair) RunUntilIdle(budget int) bool {
	for i := 0; i < budget && p.busy(); i++ {
		p.Cycle()
	}
	return !p.busy()
}

func TestPairBidirectionalTraffic(t *testing.T) {
	p := NewPair(4)
	p.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte("a to b")})
	p.B.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte("b to a")})
	if !p.RunUntilIdle(100000) {
		t.Fatal("pair did not drain")
	}
	gotB := p.B.Received()
	gotA := p.A.Received()
	if len(gotB) != 1 || gotB[0].Err != nil || !bytes.Equal(gotB[0].Frame.Payload, []byte("a to b")) {
		t.Fatalf("B received %+v", gotB)
	}
	if len(gotA) != 1 || gotA[0].Err != nil || !bytes.Equal(gotA[0].Frame.Payload, []byte("b to a")) {
		t.Fatalf("A received %+v", gotA)
	}
}

func TestPairIndependentRegisters(t *testing.T) {
	// Distinct register files: A runs FCS-16 while B runs FCS-32 —
	// which MUST fail cross-decoding, proving the endpoints are truly
	// independent (a mismatched link configuration is visible).
	p := NewPair(4)
	p.A.OAM.Write(RegFCSMode, 2)
	p.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3}})
	p.RunUntilIdle(100000)
	got := p.B.Received()
	if len(got) != 1 {
		t.Fatalf("B received %d", len(got))
	}
	if got[0].Err == nil {
		t.Fatal("FCS mode mismatch must be detected")
	}
	// Matching modes work.
	p2 := NewPair(4)
	p2.A.OAM.Write(RegFCSMode, 2)
	p2.B.OAM.Write(RegFCSMode, 2)
	p2.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{1, 2, 3}})
	p2.RunUntilIdle(100000)
	got2 := p2.B.Received()
	if len(got2) != 1 || got2[0].Err != nil {
		t.Fatalf("matched modes: %+v", got2)
	}
}

func TestPairLoopbackBit(t *testing.T) {
	// A sets CtrlLoopback: its frames come back to itself; B sees
	// nothing.
	p := NewPair(4)
	p.A.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable|CtrlLoopback)
	p.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{0xAA, 0xBB}})
	if !p.RunUntilIdle(100000) {
		t.Fatal("did not drain")
	}
	if got := p.B.Received(); len(got) != 0 {
		t.Fatalf("B received looped traffic: %+v", got)
	}
	got := p.A.Received()
	if len(got) != 1 || got[0].Err != nil || !bytes.Equal(got[0].Frame.Payload, []byte{0xAA, 0xBB}) {
		t.Fatalf("A loopback received %+v", got)
	}
	// Clear the bit: traffic flows to B again.
	p.A.OAM.Write(RegCtrl, ctrlTxEnable|ctrlRxEnable)
	p.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: []byte{0xCC}})
	p.RunUntilIdle(100000)
	if got := p.B.Received(); len(got) != 1 {
		t.Fatalf("B after loopback cleared: %+v", got)
	}
}

func TestPairMAPOSAddressing(t *testing.T) {
	// Program MAPOS addresses: B accepts only its own address.
	p := NewPair(4)
	p.A.OAM.Write(RegAddress, 0x03)
	p.B.OAM.Write(RegAddress, 0x05)
	// A → B with B's address: accepted.
	p.A.Send(TxJob{Address: 0x05, Protocol: ppp.ProtoIPv4, Payload: []byte{1}})
	// A → B with some third node's address: rejected by B.
	p.A.Send(TxJob{Address: 0x07, Protocol: ppp.ProtoIPv4, Payload: []byte{2}})
	p.RunUntilIdle(100000)
	got := p.B.Received()
	if len(got) != 2 {
		t.Fatalf("B received %d", len(got))
	}
	if got[0].Err != nil {
		t.Errorf("addressed frame rejected: %v", got[0].Err)
	}
	if got[1].Err != ppp.ErrBadAddress {
		t.Errorf("foreign frame accepted: %+v", got[1])
	}
}

func TestPairFullRate(t *testing.T) {
	// The cross-connect must not halve throughput (evaluation-order
	// regression test): a 1004-octet frame takes ≈252 words + fill.
	p := NewPair(4)
	p.A.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: bytes.Repeat([]byte{0x42}, 996)})
	start := p.Sim.Now()
	p.RunUntilIdle(100000)
	if cycles := p.Sim.Now() - start; cycles > 252+40 {
		t.Errorf("pair took %d cycles for a 1004-octet frame", cycles)
	}
}
