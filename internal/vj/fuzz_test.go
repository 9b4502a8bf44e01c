package vj

import "testing"

// FuzzDecompress must never panic on arbitrary compressed input.
func FuzzDecompress(f *testing.F) {
	f.Add(byte(2), []byte{0x0B, 0x12, 0x34})
	f.Add(byte(1), make([]byte, 40))
	f.Add(byte(0), []byte{0x45})
	f.Add(byte(2), []byte{0xFF, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, ty byte, data []byte) {
		d := NewDecompressor()
		// Prime one connection so compressed packets have state to hit.
		c0 := defaultConn()
		seed := c0.marshal()
		seed[ipProto] = 0
		d.Decompress(TypeUncompressed, seed)
		d.Decompress(Type(ty%3), data)
		d.Decompress(TypeCompressed, data)
	})
}
