package hdlc

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestNoReadPastSlice places each input flush against a PROT_NONE guard
// page and runs blockMaps, AppendStuffed and Tokenizer.Feed over it at
// every length 0…256: a load of any width that reaches past len(src)
// faults, and SetPanicOnFault turns the fault into a failure naming the
// length.
func TestNoReadPastSlice(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	const ctl = ACCM(0x000A0001)
	rng := rand.New(rand.NewSource(29))
	var maps [mapBlocks]uint64
	dst := make([]byte, 0, 4*page)
	var toks []Token
	for n := 0; n <= 256; n++ {
		src := mem[page-n : page]
		for i := range src {
			src[i] = 0x20 + byte(rng.Intn(0x5D))
			if rng.Intn(16) == 0 {
				src[i] = []byte{Flag, Escape, 0x11}[rng.Intn(3)]
			}
		}
		if n > 0 {
			src[0] = Flag // the tokenizer is in a frame from the first octet
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("length %d: %v", n, r)
				}
			}()
			for _, m := range []ACCM{ACCMNone, ctl} {
				blockMaps(&maps, src, m)
				dst = AppendStuffed(dst[:0], src, m)
			}
			var tk Tokenizer
			toks = tk.Feed(toks[:0], src)
			toks = tk.Feed(toks[:0], src) // from mid-frame
		}()
	}
}
