// Package gigapos is a Go reproduction of "A Programmable and Highly
// Pipelined PPP Architecture for Gigabit IP over SDH/SONET" (Toal &
// Sezer, IPPS 2003): the P5 packet processor.
//
// It offers three layers of API:
//
//   - The cycle-accurate hardware model (NewSystem): the paper's 8-bit
//     and 32-bit P5 datapaths — framing FSM, parallel matrix CRC,
//     pipelined escape byte sorter, Protocol OAM register file — clocked
//     one word per cycle on an RTL simulation kernel.
//
//   - The software protocol stack (NewLink): a complete PPP endpoint
//     with RFC 1661 LCP negotiation, IPCP, HDLC framing, and 16/32-bit
//     FCS, speaking the same wire format as the hardware model.
//
//   - The synthesis model (Synthesize, EscapeModuleTable, AreaRatios):
//     the structural area/timing estimator that regenerates the paper's
//     Tables 1-3.
//
// See the examples directory for runnable end-to-end scenarios,
// including IP over STM-16 SDH/SONET.
package gigapos

import (
	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/synth"
)

// Width selects the datapath width of the hardware model.
type Width int

// The two widths the paper builds.
const (
	// Width8 is the 8-bit P5: one octet per clock, 625 Mb/s at
	// 78.125 MHz.
	Width8 Width = 1
	// Width32 is the 32-bit P5: four octets per clock, 2.5 Gb/s.
	Width32 Width = 4
)

// Octets returns the datapath width in octets per clock.
func (w Width) Octets() int { return int(w) }

// Bits returns the datapath width in bits.
func (w Width) Bits() int { return int(w) * 8 }

// Re-exported hardware-model types. The System is a full loopback P5
// (transmitter, line, receiver, OAM); see repro/internal/p5 for the
// individual pipeline units.
type (
	// System is the assembled loopback P5.
	System = p5.System
	// TxJob is one datagram queued for transmission.
	TxJob = p5.TxJob
	// RxFrame is one received frame with its disposition.
	RxFrame = p5.RxFrame
	// Pair is two independent P5 endpoints cross-connected on one
	// clock (each with its own OAM register file).
	Pair = p5.Pair
	// Endpoint is one side of a Pair.
	Endpoint = p5.Endpoint
	// Frame is a decoded PPP frame.
	Frame = ppp.Frame
	// ACCM is the async-control-character map.
	ACCM = hdlc.ACCM
	// FCSSize selects 16- or 32-bit frame check sequences.
	FCSSize = crc.Size
)

// Hardware-model register map constants, re-exported for host-style
// programming of the OAM block.
const (
	RegCtrl    = p5.RegCtrl
	RegAddress = p5.RegAddress
	RegACCM    = p5.RegACCM
	RegFCSMode = p5.RegFCSMode
	RegMRU     = p5.RegMRU
	RegIntStat = p5.RegIntStat
	RegIntMask = p5.RegIntMask
)

// PPP protocol numbers.
const (
	ProtoIPv4 = ppp.ProtoIPv4
	ProtoIPv6 = ppp.ProtoIPv6
	ProtoLCP  = ppp.ProtoLCP
	ProtoIPCP = ppp.ProtoIPCP
)

// FCS sizes.
const (
	FCS16 = crc.FCS16Mode
	FCS32 = crc.FCS32Mode
)

// NewSystem builds a cycle-accurate loopback P5 of the given width.
func NewSystem(w Width) *System { return p5.NewSystem(int(w)) }

// NewPair builds two cross-connected P5 endpoints of the given width,
// each with its own register file — a real point-to-point deployment.
func NewPair(w Width) *Pair { return p5.NewPair(int(w)) }

// Synthesize returns the paper-style synthesis summary (Tables 1/2) for
// the given width on the devices the paper targeted.
func Synthesize(w Width) []synth.SystemRow {
	if w == Width8 {
		return synth.SystemTable(1, synth.XCV50, synth.XC2V40)
	}
	return synth.SystemTable(4, synth.XCV600, synth.XC2V1000)
}

// EscapeModuleTable returns the paper's Table 3: the Escape Generate
// module alone on an XC2V40.
func EscapeModuleTable() []synth.ModuleRow {
	return synth.EscapeGenerateTable(synth.XC2V40)
}

// AreaRatios returns the paper's headline 32-bit/8-bit area ratios.
func AreaRatios() synth.Ratios { return synth.ComputeRatios() }
