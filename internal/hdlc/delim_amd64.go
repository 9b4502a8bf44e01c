package hdlc

// delimMaps is blockMaps under an empty map (delim_amd64.s).
//
//go:noescape
func delimMaps(maps *[mapBlocks]uint64, src []byte) int
