package p5

import (
	"repro/internal/rtl"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// Transmitter is the assembled P5 transmit block (paper Figure 3):
// Control → CRC → Escape Generate, one W-octet word per clock.
type Transmitter struct {
	Framer *Framer
	CRC    *TxCRC
	Escape *EscapeGen
	// Out carries the raw line words to the PHY.
	Out *rtl.Wire
}

// NewTransmitter builds a transmitter of width w on sim, reading its
// configuration from regs.
func NewTransmitter(sim *rtl.Sim, w int, regs *Regs) *Transmitter {
	t := &Transmitter{}
	w1 := sim.Wire("tx.body")
	w2 := sim.Wire("tx.crc")
	t.Out = sim.Wire("tx.line")
	t.Framer = &Framer{Out: w1, W: w, Regs: regs}
	t.CRC = &TxCRC{In: w1, Out: w2, W: w}
	t.Escape = &EscapeGen{In: w2, Out: t.Out, W: w}
	sim.Add(t.Framer, t.CRC, t.Escape)
	return t
}

// Busy reports whether any frame octet is still inside the transmitter.
func (t *Transmitter) Busy() bool {
	return t.Framer.busy() || t.CRC.busy() || t.Escape.Busy()
}

// applyConfig loads a changed register sample into the transmit units.
func (t *Transmitter) applyConfig(c *config) {
	t.Escape.ACCM = c.accm
	t.Escape.SharedFlags = c.ctrl&ctrlSharedFlags != 0
	t.Escape.IdleFill = c.ctrl&ctrlIdleFill != 0
	t.CRC.Mode = c.fcs
	if t.CRC.core != nil && t.CRC.core.mode != c.fcs {
		t.CRC.core = nil // mode change re-arms the core
	}
}

// Receiver is the assembled P5 receive block (paper Figure 4):
// Delineate → Escape Detect → CRC check → Control.
type Receiver struct {
	Delineator *delineator
	Escape     *EscapeDetect
	CRC        *RxCRC
	Control    *RxControl
	// In accepts raw line words from the PHY.
	In *rtl.Wire
}

// NewReceiver builds a receiver of width w on sim.
func NewReceiver(sim *rtl.Sim, w int, regs *Regs) *Receiver {
	r := &Receiver{}
	r.In = sim.Wire("rx.line")
	w1 := sim.Wire("rx.content")
	w2 := sim.Wire("rx.clean")
	w3 := sim.Wire("rx.checked")
	r.Delineator = &delineator{In: r.In, Out: w1, W: w}
	r.Escape = &EscapeDetect{In: w1, Out: w2, W: w}
	r.CRC = &RxCRC{In: w2, Out: w3, W: w}
	r.Control = &RxControl{In: w3, Regs: regs, judge: r.CRC}
	sim.Add(r.Delineator, r.Escape, r.CRC, r.Control)
	return r
}

// Busy reports whether any octet is still inside the receiver.
func (r *Receiver) Busy() bool {
	return r.Delineator.busy() || r.Escape.busy()
}

func (r *Receiver) applyConfig(c *config) {
	r.CRC.Mode = c.fcs
	if r.CRC.core != nil && r.CRC.core.mode != c.fcs {
		r.CRC.core = nil
	}
}

// clockConfig is the first thing a clock does: sample the register file
// once and, if a host write landed since the last clock, load the same
// sample into both datapath halves — so a write takes effect on the next
// clock, whole, and transmitter and receiver never disagree within one.
func clockConfig(regs *Regs, c *config, tx *Transmitter, rx *Receiver) {
	if regs.sample(c) {
		tx.applyConfig(c)
		rx.applyConfig(c)
	}
}

// Line is the physical link between a transmitter and a receiver: it
// moves words at line rate and can inject errors (the synthetic stand-in
// for optics and noise).
type Line struct {
	In  *rtl.Wire
	Out *rtl.Wire
	// Corrupt, when set, may damage a word in flight.
	Corrupt func(f rtl.Flit, cycle int64) rtl.Flit

	cycle int64
	Words uint64
}

// Eval implements rtl.Module.
func (l *Line) Eval() {
	f, ok := l.In.Peek()
	if !ok {
		return
	}
	if !l.Out.CanPush() {
		return
	}
	l.In.Take()
	if l.Corrupt != nil {
		f = l.Corrupt(f, l.cycle)
	}
	l.Words++
	l.Out.Push(f)
}

// Tick is the unit's clocked half: rtl.Sim.Add picks it up.
func (l *Line) Tick() { l.cycle++ }

// System is a full P5: transmitter, line, receiver, and the Protocol
// OAM block, all on one clock. The line loops the octets straight back,
// or (NewSectionSystem) hands them to an STM-N Section on the way.
type System struct {
	W    int
	Sim  *rtl.Sim
	Regs *Regs
	OAM  *OAM
	Tx   *Transmitter
	Rx   *Receiver
	Line *Line
	// Section is the STM-N section between Line and Rx; nil in loopback.
	Section *Section

	cfg       config // this clock's register sample
	txWasBusy bool
	tel       *telemetry.Mirror // nil until Instrument

	// Fill-latency span: armed when the transmitter picks up work from
	// idle, closed when the next word crosses the line register. The
	// paper's four-cycle sorter claim becomes a continuously measured
	// value instead of a one-off test observation.
	fillPending bool
	fillStart   int64
	fillHist    *telemetry.Histogram
	// FillLatency is the last measured idle→first-line-word transmit
	// fill latency in cycles (-1 until a span completes); FillSpans
	// counts completed measurements.
	FillLatency int64
	FillSpans   uint64
}

// NewSystem assembles a width-w loopback system (w = 1 for the 8-bit
// P5, 4 for the 32-bit P5).
func NewSystem(w int) *System { return newSystem(w, nil) }

// NewSectionSystem assembles a width-w system whose line octets cross
// one STM-N section at level before they reach the receiver; the OAM
// block watches the far end's defect monitor.
func NewSectionSystem(w int, level sonet.Level) *System {
	a, z := sonet.NewLinePair(level)
	sys := newSystem(w, &Section{A: a, Z: z, w: w, level: level, budget: level.FrameBytes()})
	sys.OAM.AttachSection(z.Deframer())
	return sys
}

func newSystem(w int, sec *Section) *System {
	sys := &System{W: w, Sim: &rtl.Sim{}, Regs: NewRegs(), FillLatency: -1, Section: sec}
	sys.Tx = NewTransmitter(sys.Sim, w, sys.Regs)
	sys.Tx.Framer.cfg = &sys.cfg
	// The line (and the section behind it) registers between Tx and Rx
	// so that, in the kernel's downstream-first evaluation, the receiver
	// vacates Rx.In before the line pushes and the line vacates Tx.Out
	// before the transmitter pushes — full one-word-per-cycle line rate.
	sys.Line = &Line{In: sys.Tx.Out}
	sys.Sim.Add(sys.Line)
	if sec != nil {
		sec.in = sys.Sim.Wire("phy.line")
		sys.Line.Out = sec.in
		sys.Sim.Add(sec)
	}
	sys.Rx = NewReceiver(sys.Sim, w, sys.Regs)
	sys.Rx.Control.cfg = &sys.cfg
	if sec != nil {
		sec.out = sys.Rx.In
	} else {
		sys.Line.Out = sys.Rx.In
	}
	sys.OAM = &OAM{Regs: sys.Regs, tx: sys.Tx, rx: sys.Rx}
	sys.Rx.Control.Deliver = func(f RxFrame) {
		sys.Rx.Control.Queue = append(sys.Rx.Control.Queue, f)
		sys.Regs.raiseInt(rxInt(f.Err == nil))
	}
	clockConfig(sys.Regs, &sys.cfg, sys.Tx, sys.Rx) // reset values
	return sys
}

// rxInt is the interrupt a frame handed to the host raises: intRxFrame
// for a good one, intRxError for a bad or dropped one.
func rxInt(good bool) uint32 {
	if good {
		return intRxFrame
	}
	return intRxError
}

// Send queues datagrams for transmission.
func (s *System) Send(jobs ...TxJob) { s.Tx.Framer.Enqueue(jobs...) }

// Received drains and returns the receive queue; the slice and its
// frames follow RxFrame's ownership rule.
func (s *System) Received() []RxFrame { return s.Rx.Control.drain() }

// ReceivedInto appends the drained receive queue to dst and returns it —
// the batch-drain form; the frames follow RxFrame's ownership rule.
func (s *System) ReceivedInto(dst []RxFrame) []RxFrame {
	return append(dst, s.Rx.Control.drain()...)
}

// Cycle advances the whole system one clock.
func (s *System) Cycle() {
	clockConfig(s.Regs, &s.cfg, s.Tx, s.Rx)
	// An idle transmitter picks up work only through the framer's queues.
	if !s.fillPending && !s.txWasBusy && s.Tx.Framer.busy() {
		s.fillPending = true
		s.fillStart = s.Sim.Now()
	}
	prevWords := s.Line.Words
	s.Sim.Cycle()
	if s.fillPending && s.Line.Words > prevWords {
		s.fillPending = false
		// The line model takes the word in the cycle it becomes visible
		// on the transmit wire, so the span matches a sink's FirstCycle.
		s.FillLatency = s.Sim.Now() - 1 - s.fillStart
		s.FillSpans++
		if s.fillHist != nil {
			s.fillHist.Observe(s.FillLatency)
		}
	}
	busy := s.Tx.Busy()
	if s.txWasBusy && !busy {
		s.Regs.raiseInt(intTxDone)
	}
	s.txWasBusy = busy
	if s.tel != nil && s.Sim.Now()&(telemetrySyncInterval-1) == 0 {
		s.tel.Sync()
	}
}

// busy reports whether any octet is in flight anywhere in the system.
func (s *System) busy() bool {
	return s.Tx.Busy() || s.Rx.Busy() || !s.Sim.Drained() || s.Section.busy()
}

// RunUntilIdle clocks the system until it drains or the budget runs
// out; it reports whether the system drained.
func (s *System) RunUntilIdle(budget int) bool {
	if !s.busy() {
		return true
	}
	for i := 0; i < budget; i++ {
		s.Cycle()
		// Cycle has just evaluated the transmitter's busy state.
		if !s.txWasBusy && !s.Rx.Busy() && s.Sim.Drained() && !s.Section.busy() {
			return true
		}
	}
	return false
}
