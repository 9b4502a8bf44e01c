// Package rtl is a small synchronous register-transfer-level simulation
// kernel: clocked modules connected by single-slot registered wires with
// valid/consume handshakes. It gives the P5 model exact cycle semantics —
// words per clock, pipeline fill latency, stalls, and backpressure — the
// properties the paper's evaluation is about.
//
// # Evaluation model
//
// Each cycle has two phases. In the evaluate phase every module's Eval
// runs in downstream-to-upstream order: a module may consume the flit
// standing on its input wire (Take) and push one onto its output wire
// (Push) if the slot will be free. Because consumers run before
// producers, "the slot will be free" is known exactly: a wire accepts a
// push iff it is empty or its current flit was consumed this cycle. In
// the tick phase every wire latches — pushed flits become visible to
// consumers on the next cycle, exactly like a pipeline register.
//
// The downstream-first order lets a module advance all of its own state
// inside Eval, so most have nothing left to latch. The few that keep
// clocked state of their own — a cycle counter, in Sink and the p5 line
// models — also have a Tick method; Sim.Add notices it once and the tick
// phase calls only those before the wires latch.
//
// A module that cannot push simply does not take its input; the stall
// propagates upstream wire by wire, which is precisely the backpressure
// scheme of a ready/valid hardware pipeline with registered outputs.
package rtl

import (
	"encoding/binary"

	"repro/internal/telemetry"
)

// Flit is one datapath word in flight: up to 8 octets packed
// little-endian (lane 0 = first octet on the wire), a lane count, and
// frame markers.
type Flit struct {
	// Data holds the octets: lane i is byte (Data >> 8i).
	Data uint64
	// N is the number of valid lanes, 1..8. Zero lanes only appear in
	// control-only flits (EOF bubbles).
	N int
	Marks
}

// Marks are a flit's frame markers. They are a struct of their own so
// that Flit has three fields of at most four: the shape the compiler
// keeps in registers instead of building in memory a byte at a time.
type Marks struct {
	// SOF marks the first flit of a frame, EOF the last.
	SOF, EOF bool
	// Err marks the frame as damaged (overrun, FCS failure); it
	// travels with the frame to the sink.
	Err bool
	// Abort marks a deliberately aborted frame (HDLC abort sequence).
	Abort bool
}

// Byte returns lane i of the flit.
func (f Flit) Byte(i int) byte { return byte(f.Data >> (8 * uint(i))) }

// SetByte stores b into lane i.
func (f *Flit) SetByte(i int, b byte) {
	shift := 8 * uint(i)
	f.Data = f.Data&^(0xFF<<shift) | uint64(b)<<shift
}

// Bytes appends the valid lanes of f to dst.
func (f Flit) Bytes(dst []byte) []byte {
	var lanes [8]byte
	binary.LittleEndian.PutUint64(lanes[:], f.Data)
	return append(dst, lanes[:f.N]...)
}

// FlitOf packs up to 8 bytes into a flit.
func FlitOf(p []byte) Flit {
	var lanes [8]byte
	n := copy(lanes[:], p)
	return Flit{Data: binary.LittleEndian.Uint64(lanes[:]), N: n}
}

// Wire is a single-slot pipeline register between two modules. The zero
// value is an empty wire. Name is used in traces.
type Wire struct {
	Name string

	cur      Flit
	curValid bool
	consumed bool
	next     Flit
	nextOK   bool

	// Transfers counts flits moved through the wire; Stalls counts
	// cycles a producer found the wire blocked (via CanPush queries
	// that returned false); Occupied counts cycles the slot held a
	// flit at the clock edge — Occupied/cycles is the wire's
	// occupancy, the paper's per-stage pipeline utilisation figure.
	Transfers uint64
	Stalls    uint64
	Occupied  uint64
}

// Peek returns the flit standing on the wire, if any, without consuming.
func (w *Wire) Peek() (Flit, bool) {
	if w.curValid && !w.consumed {
		return w.cur, true
	}
	return Flit{}, false
}

// Take consumes the flit standing on the wire. ok is false if the wire is
// empty (or already consumed this cycle).
func (w *Wire) Take() (Flit, bool) {
	if !w.curValid || w.consumed {
		return Flit{}, false
	}
	w.consumed = true
	w.Transfers++
	return w.cur, true
}

// CanPush reports whether a push this cycle will be accepted: the slot is
// empty or being vacated. A false result is counted as a stall.
func (w *Wire) CanPush() bool {
	if w.curValid && !w.consumed {
		w.Stalls++
		return false
	}
	return !w.nextOK
}

// Push places a flit onto the wire for the next cycle. It panics if the
// slot is not free — call CanPush first; pushing without checking is a
// module bug, the hardware analog of driving a bus that is in use.
func (w *Wire) Push(f Flit) {
	if (w.curValid && !w.consumed) || w.nextOK {
		panic("rtl: push onto occupied wire " + w.Name)
	}
	w.next = f
	w.nextOK = true
}

// Tick latches the wire at the clock edge.
func (w *Wire) Tick() {
	if w.consumed {
		w.curValid = false
		w.consumed = false
	}
	if w.nextOK {
		w.cur = w.next
		w.curValid = true
		w.nextOK = false
	}
	if w.curValid {
		w.Occupied++
	}
}

// empty reports whether the wire holds no flit and none is being latched.
func (w *Wire) empty() bool { return !(w.curValid && !w.consumed) && !w.nextOK }

// Module is a pipeline stage. Eval runs its combinational phase for this
// cycle; modules are evaluated downstream-first (reverse registration
// order).
type Module interface{ Eval() }

// clocked is the optional second half of a Module that keeps clocked
// state of its own: Tick latches it at the clock edge, after every Eval.
type clocked interface{ Tick() }

// Sim drives a set of modules and wires with a common clock. Register
// modules in upstream-to-downstream order; Sim evaluates them in reverse.
type Sim struct {
	modules []Module
	clocked []clocked // the modules that also have a Tick
	wires   []*Wire
	cycle   int64
	mirror  *telemetry.Mirror // nil until Instrument
	watches []*busyWatch
}

// Add registers modules in datapath order (source first).
func (s *Sim) Add(m ...Module) {
	s.modules = append(s.modules, m...)
	for _, m := range m {
		if c, ok := m.(clocked); ok {
			s.clocked = append(s.clocked, c)
		}
	}
}

// Wire creates and registers a named wire.
func (s *Sim) Wire(name string) *Wire {
	w := &Wire{Name: name}
	s.wires = append(s.wires, w)
	return w
}

// Cycle advances the simulation by one clock.
func (s *Sim) Cycle() {
	for i := len(s.modules) - 1; i >= 0; i-- {
		s.modules[i].Eval()
	}
	for _, c := range s.clocked {
		c.Tick()
	}
	for _, w := range s.wires {
		w.Tick()
	}
	s.cycle++
	for _, bw := range s.watches {
		if bw.busy() {
			bw.cycles++
		}
	}
}

// RunUntil advances until pred returns true or the budget is exhausted;
// it reports whether pred fired.
func (s *Sim) RunUntil(pred func() bool, budget int) bool {
	for i := 0; i < budget; i++ {
		if pred() {
			return true
		}
		s.Cycle()
	}
	return pred()
}

// Now returns the cycle count.
func (s *Sim) Now() int64 { return s.cycle }

// Drained reports whether every wire is empty — the pipeline has no work
// in flight.
func (s *Sim) Drained() bool {
	for _, w := range s.wires {
		if !w.empty() {
			return false
		}
	}
	return true
}
