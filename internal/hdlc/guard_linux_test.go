package hdlc

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// guarded returns a page of memory whose end is flush against a
// PROT_NONE page, with fault panics armed until the test ends: a load
// or store of any width that reaches past the page faults, and
// SetPanicOnFault turns the fault into a panic the test can name.
func guarded(t *testing.T) []byte {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	old := debug.SetPanicOnFault(true)
	t.Cleanup(func() { debug.SetPanicOnFault(old) })
	return mem[:page:page]
}

// fill writes src from the guard tests' two mixes: sparse, one octet in
// sixteen a flag, an escape or DC1; or dense, every other octet one
// (the link_escape50 layout, where every block takes the sorter).
func fill(src []byte, rng *rand.Rand, dense bool) {
	for i := range src {
		src[i] = 0x20 + byte(rng.Intn(0x5D))
		if dense && rng.Intn(2) == 0 || rng.Intn(16) == 0 {
			src[i] = []byte{Flag, Escape, 0x11}[rng.Intn(3)]
		}
	}
}

// TestNoReadPastSlice places each input flush against a guard page and
// runs blockMaps, AppendStuffed and Tokenizer.Feed over it at every
// length 0…256, in the sparse and the 50 %-density mix: a load of any
// width that reaches past len(src) fails the test, naming the length.
func TestNoReadPastSlice(t *testing.T) {
	mem := guarded(t)
	const ctl = ACCM(0x000A0001)
	rng := rand.New(rand.NewSource(29))
	var maps [mapBlocks]uint64
	dst := make([]byte, 0, 4*len(mem))
	var toks []Token
	for _, dense := range []bool{false, true} {
		for n := 0; n <= 256; n++ {
			src := mem[len(mem)-n:]
			fill(src, rng, dense)
			if n > 0 {
				src[0] = Flag // the tokenizer is in a frame from the first octet
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("length %d, dense %t: %v", n, dense, r)
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
}

// TestNoWritePastReservation is its write-side twin: each sorter's
// destination is exactly the reservation its caller makes — twice the
// whole words to stuff, the whole words to destuff — flush against a
// guard page, at every length 0…256 in both mixes, and so is
// stuffBlock's and destuffBlock's when the slice they extend has no
// spare capacity. The SIMD sorter's 16-octet transmit and 8-octet
// receive stores must all land inside it; a store past it fails the
// test, naming the length. Each output is checked against Stuff and
// destuff.
func TestNoWritePastReservation(t *testing.T) {
	mem := guarded(t)
	const ctl = ACCM(0x000A0001)
	rng := rand.New(rand.NewSource(41))
	src := make([]byte, 256)
	for _, dense := range []bool{false, true} {
		for n := 0; n <= 256; n++ {
			fill(src[:n], rng, dense)
			words := n &^ 7
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("length %d, dense %t: %v", n, dense, r)
					}
				}()
				for _, m := range []ACCM{ACCMNone, ctl} {
					want, wantWords := Stuff(nil, src[:n], m), Stuff(nil, src[:words], m)
					for _, s := range wordSorters() {
						dst := mem[len(mem)-2*words:]
						if k := s.stuff(dst, src[:words], m); !bytes.Equal(dst[:k], wantWords) {
							t.Fatalf("%s stuff, length %d: wrong output", s.name, n)
						}
					}
					res := mem[len(mem)-1-2*n : len(mem)-2*n] // one octet, the room after it reserved
					if got := stuffBlock(res, src[:n], m); !bytes.Equal(got[1:], want) {
						t.Fatalf("stuffBlock, length %d: wrong output", n)
					}
				}
				for pin := range uint64(2) {
					want, wantEsc := destuff(nil, src[:n], pin == 1)
					wantWords, _ := destuff(nil, src[:words], pin == 1)
					for _, s := range wordSorters() {
						dst := mem[len(mem)-words:]
						if k, _ := s.destuff(dst, src[:words], pin); !bytes.Equal(dst[:k], wantWords) {
							t.Fatalf("%s destuff, length %d: wrong output", s.name, n)
						}
					}
					res := mem[len(mem)-1-n : len(mem)-n]
					if got, esc := destuffBlock(res, src[:n], pin == 1); !bytes.Equal(got[1:], want) || esc != wantEsc {
						t.Fatalf("destuffBlock, length %d: wrong output", n)
					}
				}
			}()
		}
	}
}
