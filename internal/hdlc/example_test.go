package hdlc_test

import (
	"fmt"

	"repro/internal/hdlc"
)

// Octet stuffing escapes flags inside the payload — the paper's §2
// example.
func ExampleStuff() {
	out := hdlc.Stuff(nil, []byte{0x31, 0x33, 0x7E, 0x96}, hdlc.ACCMNone)
	fmt.Printf("% X\n", out)
	// Output:
	// 31 33 7D 5E 96
}

// The tokenizer recovers frames from a raw line stream across arbitrary
// chunk boundaries.
func ExampleTokenizer() {
	wire := []byte{0x7E, 'h', 'i', 0x7E, 0x7D, 0x5E, 0x7E} // two frames, one shared flag
	var tk hdlc.Tokenizer
	for _, tok := range tk.Feed(nil, wire) {
		fmt.Printf("% X\n", tok.Body)
	}
	// Output:
	// 68 69
	// 7E
}
