//go:build !amd64

package hdlc

// sorter is false off amd64: the word paths are the portable sorters,
// stuffWords and destuffWords.
const sorter = false

func sortStuff(dst, src []byte, m ACCM) int { panic("hdlc: no SIMD sorter") }

func sortDestuff(dst, src []byte, pend uint64) (int, uint64) { panic("hdlc: no SIMD sorter") }
