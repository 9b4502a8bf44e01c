package crc

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// guarded returns a page of memory between two PROT_NONE pages: a load
// of any width that reaches past either end of the page faults.
func guarded(t *testing.T) []byte {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[2*page:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return mem[page : 2*page : 2*page]
}

// TestNoReadPastSlice runs Update over every length 0…128, each input
// once flush against the guard page after it and once starting just
// after the guard page before it, for both sizes on every kernel: the
// fold's overlapping tail load must stay inside the slice. A load that
// leaves it fails the test, naming the length; each result is checked
// against the bitwise reference. SetPanicOnFault, armed in each
// subtest's own goroutine, turns the fault into a panic it can name.
func TestNoReadPastSlice(t *testing.T) {
	mem := guarded(t)
	rand.New(rand.NewSource(42)).Read(mem)
	eachKernel(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		for n := 0; n <= 128; n++ {
			for _, p := range [][]byte{mem[len(mem)-n:], mem[:n]} {
				for _, sz := range sizes {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%v, length %d at page offset %d: %v", sz.mode, n, len(mem)-cap(p), r)
							}
						}()
						if got, want := sz.mode.Update(sz.mode.Init(), p), sz.bitwise(sz.mode.Init(), p); got != want {
							t.Fatalf("%v, length %d: Update %#x, bitwise %#x", sz.mode, n, got, want)
						}
					}()
				}
			}
		}
	})
}
