//go:build !amd64

package hdlc

import "encoding/binary"

// delimMaps is blockMaps under an empty map: word w's delimLanes mask
// lands lane i on bit 8i+w, two operations a word with no branch on the
// data, and a block with a bit set is transposed into octet order.
func delimMaps(maps *[mapBlocks]uint64, src []byte) int {
	le := binary.LittleEndian
	k := min(len(src)/BlockOctets, mapBlocks)
	for i := range k {
		blk := (*[BlockOctets]byte)(src[i*BlockOctets:])
		t := delimLanes(le.Uint64(blk[0:])) >> 7
		t |= delimLanes(le.Uint64(blk[8:])) >> 6
		t |= delimLanes(le.Uint64(blk[16:])) >> 5
		t |= delimLanes(le.Uint64(blk[24:])) >> 4
		t |= delimLanes(le.Uint64(blk[32:])) >> 3
		t |= delimLanes(le.Uint64(blk[40:])) >> 2
		t |= delimLanes(le.Uint64(blk[48:])) >> 1
		t |= delimLanes(le.Uint64(blk[56:]))
		if maps[i] = 0; t == 0 {
			continue
		}
		if maps[i] = transpose(t); isDense(maps[i]) {
			return i + 1
		}
	}
	return k
}
