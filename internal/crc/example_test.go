package crc_test

import (
	"fmt"

	"repro/internal/crc"
)

// The parallel matrix engine consumes a whole datapath word per step —
// the paper's single-clock-cycle CRC update.
func ExampleNewParallel32() {
	engine := crc.NewParallel32(32) // the 32-bit P5's 32x32 matrix
	fcs := crc.Init32
	// One Step folds four octets ("1234" packed little-endian).
	fcs = engine.Step(fcs, uint64('1')|uint64('2')<<8|uint64('3')<<16|uint64('4')<<24)
	fcs = engine.Update(fcs, []byte("56789"))
	fmt.Printf("%#08x\n", fcs^0xFFFFFFFF)
	// Output:
	// 0xcbf43926
}

// FCS fields append complemented, LSB first, and verify by magic
// residue (RFC 1662).
func ExampleSize_Append() {
	frame := crc.FCS32Mode.Append([]byte{0xFF, 0x03, 0x00, 0x21, 0xDE, 0xAD})
	fmt.Println(crc.FCS32Mode.Check(frame))
	frame[4] ^= 0x01
	fmt.Println(crc.FCS32Mode.Check(frame))
	// Output:
	// true
	// false
}
