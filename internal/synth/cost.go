// Package synth estimates FPGA implementation cost — 4-input LUTs,
// flip-flops, and logic depth — for the P5 architecture, standing in for
// the Synplicity/Xilinx synthesis flow of the paper's evaluation
// (Tables 1–3). Every datapath module is described as an inventory of
// mapped primitives (comparators, crossbar multiplexers, XOR trees taken
// from the real CRC matrices, registers, FSMs) using standard
// technology-mapping formulas, so the area *ratios* the paper highlights
// (the 32-bit system ≈ 11× the 8-bit system; the 32-bit Escape Generate
// ≈ 25× LUTs / 28× FFs of the 8-bit one) emerge from structure rather
// than curve fitting.
package synth

// Cost is an implementation cost: 4-input LUT count, flip-flop count,
// and combinational depth in LUT levels.
type Cost struct {
	LUTs  int
	FFs   int
	Depth int
}

// add sums areas and takes the maximum depth (parallel composition).
func (c Cost) add(o Cost) Cost {
	d := c.Depth
	if o.Depth > d {
		d = o.Depth
	}
	return Cost{LUTs: c.LUTs + o.LUTs, FFs: c.FFs + o.FFs, Depth: d}
}

// times replicates a cost n times in parallel.
func (c Cost) times(n int) Cost {
	return Cost{LUTs: c.LUTs * n, FFs: c.FFs * n, Depth: c.Depth}
}

// register is n flip-flops.
func register(bits int) Cost { return Cost{FFs: bits} }

// lutTree is a single-output boolean function of k inputs mapped onto a
// tree of 4-input LUTs: each LUT absorbs 4 inputs and emits 1, so the
// tree needs ceil((k-1)/3) LUTs at depth ceil(log4(k)).
func lutTree(k int) Cost {
	if k <= 1 {
		return Cost{}
	}
	luts := (k - 1 + 2) / 3
	depth := 0
	for n := k; n > 1; n = (n + 3) / 4 {
		depth++
	}
	return Cost{LUTs: luts, Depth: depth}
}

// eqConst compares a bits-wide value against a constant.
func eqConst(bits int) Cost { return lutTree(bits) }

// xorTree is a parity/XOR reduction of k inputs (CRC next-state bit).
func xorTree(k int) Cost { return lutTree(k) }

// mux is an n-to-1 multiplexer of the given width: each output bit is a
// tree of 2:1 muxes (one LUT4 each), n-1 per bit, depth ceil(log2 n).
func mux(n, width int) Cost {
	if n <= 1 {
		return Cost{}
	}
	depth := 0
	for v := n - 1; v > 0; v >>= 1 {
		depth++
	}
	return Cost{LUTs: (n - 1) * width, Depth: depth}
}

// counter is an n-bit synchronous counter (carry chain absorbed into
// one LUT per bit on Virtex-class parts).
func counter(bits int) Cost { return Cost{LUTs: bits, FFs: bits, Depth: 1} }

// fsm estimates a one-hot finite state machine with the given number of
// states and condition inputs.
func fsm(states, inputs int) Cost {
	next := lutTree(inputs + 2).times(states) // next-state logic per state bit
	next.FFs = states
	return next
}

// priorityEncoder finds the first set bit among n inputs, emitting a
// log2(n)-bit index — the "first offending lane" logic of the sorter.
func priorityEncoder(n int) Cost {
	if n <= 1 {
		return Cost{}
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	c := lutTree(n).times(bits)
	// Multi-output prefix logic is a level deeper than a single tree.
	c.Depth = bits
	return c
}
