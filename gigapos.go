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
//   - The synthesis model (cmd/p5tables, over internal/synth): the
//     structural area/timing estimator that regenerates the paper's
//     Tables 1-3.
//
// See the examples directory for runnable end-to-end scenarios,
// including IP over STM-16 SDH/SONET.
package gigapos

import (
	"repro/internal/crc"
	"repro/internal/p5"
	"repro/internal/ppp"
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

// Re-exported hardware-model types. The System is a full loopback P5
// (transmitter, line, receiver, OAM); see repro/internal/p5 for the
// individual pipeline units.
type (
	// System is the assembled loopback P5.
	System = p5.System
	// TxJob is one datagram queued for transmission.
	TxJob = p5.TxJob
	// FCSSize selects 16- or 32-bit frame check sequences.
	FCSSize = crc.Size
)

// Hardware-model register map constants, re-exported for host-style
// programming of the OAM block.
const (
	RegCtrl    = p5.RegCtrl
	RegAddress = p5.RegAddress
)

// ProtoIPv4 is the PPP protocol number of an IPv4 datagram.
const ProtoIPv4 = ppp.ProtoIPv4

// FCS32 selects the 32-bit frame check sequence.
const FCS32 = crc.FCS32Mode

// NewSystem builds a cycle-accurate loopback P5 of the given width.
func NewSystem(w Width) *System { return p5.NewSystem(int(w)) }
