package synth_test

import (
	"fmt"

	"repro/internal/synth"
)

// The synthesis model reproduces the paper's area ratios.
func ExampleComputeRatios() {
	r := synth.ComputeRatios()
	fmt.Printf("escape generate 32-bit/8-bit: %.0fx LUTs, %.0fx FFs\n",
		r.EscapeGenLUT, r.EscapeGenFF)
	// Output:
	// escape generate 32-bit/8-bit: 24x LUTs, 29x FFs
}
