package synth

import (
	"math/bits"

	"repro/internal/crc"
)

// ModuleCost names one block of the P5 and its estimated cost.
type ModuleCost struct {
	Name string
	Cost Cost
}

// escapeGenerate estimates the Escape Generate unit for a W-octet
// datapath, mirroring the structure simulated in internal/p5:
//
//   - detect: two 8-bit equal-to-constant comparators per lane
//     (flag and escape);
//   - expand (W>1): a crossbar writing up to 2W output octets, each
//     selected from the W input lanes or the escape constant, steered
//     by a prefix count of the escape mask;
//   - merge/align (W>1): a 2W-1 octet residue register and a W-octet
//     output crossbar selecting across residue and expanded octets —
//     the "byte sorter mechanisms built with large decision-making
//     combinational logic" the paper identifies as the area driver;
//   - for W == 1 the whole unit is one comparator pair, an output
//     2:1 multiplexer and a small hold FSM, the classic 8-bit design.
func escapeGenerate(w int) Cost {
	detect := eqConst(8).times(2 * w)
	if w == 1 {
		out := mux(2, 8)            // data / escaped-data selection
		ctl := fsm(3, 3)            // idle / escape-pending / stuffing
		hold := lutTree(4).times(2) // handshake + hold-input gating
		hs := register(3)           // valid/ready handshake flops
		c := detect.add(out).add(ctl.add(hold)).add(hs)
		c.Depth = detect.Depth + out.Depth + 1 // compare → select → gate
		return c
	}
	// Stage registers: input word + mask (stage A), expanded octets +
	// count (stage B).
	regs := register(w*8 + w).add(register(2*w*8 + bits.Len(uint(2*w))))
	// Expansion crossbar: 2W output octets, each choosing among the W
	// lanes or the escape/XORed constants.
	expand := mux(w+1, 8).times(2 * w)
	// Prefix-population count of the mask steers the crossbar.
	steer := priorityEncoder(w).times(2)
	// Merge/align: residue register plus the W-octet output crossbar
	// over 2W candidate sources.
	residue := register((2*w - 1) * 8)
	align := mux(2*w, 8).times(w)
	ctl := fsm(4, 4).add(counter(bits.Len(uint(4 * w))).times(2))
	c := detect.add(regs).add(expand).add(steer).add(residue).add(align).add(ctl)
	// The unit is pipelined, so its critical path is the worst single
	// stage, not the sum: the expand stage chains the mask steering
	// into the crossbar selects plus the register-enable gating —
	// the paper's six LUT levels.
	c.Depth = maxInt(detect.Depth+1,
		steer.Depth+expand.Depth+1,
		align.Depth+2)
	return c
}

func maxInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// escapeDetect estimates the receive-side unit; structurally the mirror
// image (deletion instead of insertion), with the same sorter skeleton.
func escapeDetect(w int) Cost {
	detect := eqConst(8).times(w) // only the escape octet is hunted here
	if w == 1 {
		out := mux(2, 8) // pass / XOR-restored
		ctl := fsm(3, 3)
		hs := register(3)
		c := detect.add(out).add(ctl).add(hs)
		c.Depth = detect.Depth + out.Depth + 1
		return c
	}
	regs := register(w*8 + w).add(register(w*8 + bits.Len(uint(w))))
	compact := mux(w, 8).times(w) // bubble-collapse crossbar
	steer := priorityEncoder(w).times(2)
	residue := register((2*w - 1) * 8)
	align := mux(2*w, 8).times(w)
	ctl := fsm(4, 4).add(counter(bits.Len(uint(4 * w))).times(2))
	c := detect.add(regs).add(compact).add(steer).add(residue).add(align).add(ctl)
	c.Depth = maxInt(detect.Depth+1,
		steer.Depth+compact.Depth+1,
		align.Depth+2)
	return c
}

// CRCUnit estimates the parallel CRC core for a W-octet datapath
// directly from the real GF(2) matrices: output bit i is an XOR tree
// over the state and data bits in row i of [Mstate | Mdata].
func CRCUnit(w int, mode crc.Size) Cost {
	if mode == crc.FCS16Mode {
		// Half the state width: approximate as half the XOR network.
		c32 := crcMatrixCost(w)
		return Cost{LUTs: c32.LUTs / 2, FFs: 16 + w*8, Depth: c32.Depth}
	}
	c := crcMatrixCost(w)
	c.FFs = 32 + w*8 // state register + pipeline register for the word
	return c
}

func crcMatrixCost(w int) Cost {
	e := crc.NewParallel32(8 * w)
	ms, md := e.StateMatrix(), e.DataMatrix()
	var c Cost
	for r := 0; r < 32; r++ {
		fanin := bits.OnesCount64(ms.Row(r)) + bits.OnesCount64(md.Row(r))
		c = c.add(xorTree(fanin)) // LUTs accumulate; depth takes the max row
	}
	return c
}

// framerControl estimates the transmitter control unit: header
// insertion multiplexers, length counters, and the framing FSM driven
// by OAM commands.
func framerControl(w int) Cost {
	hdr := mux(3, 8).times(w)   // header byte / payload / idle per lane
	cnt := counter(16).times(2) // offset and length
	ctl := fsm(5, 5)            // idle/header/payload/close/stall
	c := hdr.add(cnt).add(ctl)
	c.Depth = ctl.Depth + hdr.Depth
	return c
}

// rxControlUnit estimates the receiver control unit: frame assembly
// pointers, address/length policing comparators, status generation.
func rxControlUnit(w int) Cost {
	police := eqConst(8).times(2).add(lutTree(16)) // address ×2 + MRU compare
	cnt := counter(16).times(2)
	ctl := fsm(5, 5)
	c := police.add(cnt).add(ctl)
	c.Depth = ctl.Depth + police.Depth
	return c
}

// oamBlock estimates the Protocol OAM: configuration registers, the
// interrupt cell, the host bus decoder, and the status counters.
func oamBlock() Cost {
	cfg := register(32 + 8 + 8 + 32 + 3 + 16) // ctrl/addr/control/accm/fcs/mru
	ints := register(8 + 8).add(lutTree(8))   // status+mask+reduce
	dec := lutTree(6).times(16)               // address decode for 16 registers
	counters := counter(16).times(8)          // rolling status counters
	return cfg.add(ints).add(dec).add(counters)
}

// Inventory lists every block of a width-w P5 (w octets per clock: 1 =
// the paper's 8-bit system, 4 = the 32-bit system).
func Inventory(w int) []ModuleCost {
	return []ModuleCost{
		{"escape-generate", escapeGenerate(w)},
		{"escape-detect", escapeDetect(w)},
		{"tx-crc", CRCUnit(w, crc.FCS32Mode)},
		{"rx-crc", CRCUnit(w, crc.FCS32Mode)},
		{"tx-control", framerControl(w)},
		{"rx-control", rxControlUnit(w)},
		{"protocol-oam", oamBlock()},
	}
}

// Total sums an inventory.
func Total(inv []ModuleCost) Cost {
	var c Cost
	for _, m := range inv {
		c = c.add(m.Cost)
	}
	return c
}

// datapathTotal sums an inventory excluding the Protocol OAM — the
// paper's stated focus ("the main focus of this paper is on the
// data-path implementation").
func datapathTotal(inv []ModuleCost) Cost {
	var c Cost
	for _, m := range inv {
		if m.Name == "protocol-oam" {
			continue
		}
		c = c.add(m.Cost)
	}
	return c
}

// CoreTotal sums only the four per-word datapath engines — the escape
// units and CRC units. The paper's 8-bit flip-flop count (84) is almost
// exactly two CRC cores plus the escape pair, indicating its "system"
// figures cover this core; CoreTotal is therefore the closest
// like-for-like comparison against Tables 1 and 2.
func CoreTotal(inv []ModuleCost) Cost {
	var c Cost
	for _, m := range inv {
		switch m.Name {
		case "escape-generate", "escape-detect", "tx-crc", "rx-crc":
			c = c.add(m.Cost)
		}
	}
	return c
}
