package p5

import "repro/internal/rtl"

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

// Tick implements rtl.Clocked.
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
