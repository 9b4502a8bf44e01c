// Package crc implements the cyclic-redundancy-check substrate of the P5
// reproduction: the PPP frame check sequences FCS-16 (RFC 1662 §C.2) and
// FCS-32 (RFC 1662 §C.3) in four interchangeable engines.
//
//   - Bitwise: the 1-bit-per-step LFSR reference, used as ground truth.
//   - Table: the byte-at-a-time Sarwate algorithm (the software mirror of
//     the paper's 8-bit CRC unit).
//   - Slicing: slicing-by-8 (FCS-32) and by-2 (FCS-16), the portable
//     software path and the named definition of the production kernel.
//   - Matrix: the paper's parallel CRC core [Pei & Zukowski 1992] — the
//     next CRC state is computed from the current state and W input bits
//     in one step via a GF(2) matrix, exactly the 8×32 (8-bit P5) and
//     32×32 (32-bit P5) parallel matrices of the paper.
//
// Size.Update is the production kernel. On amd64 every input of 16
// octets or more, of either size, is folded by carry-less multiply
// (fcs_amd64.s) — software's CRC core as wide as the datapath, its
// constants derived from the Matrix model at init — when the CPU has
// the instructions; elsewhere FCS-32 inputs of 64 octets or more go
// to hash/crc32. Everything else takes the Slicing tables. Callers
// fold once per frame, so that a frame reaches it whole.
//
// All engines operate on the same reflected polynomial conventions PPP
// uses (FCS-16 poly 0x8408, FCS-32 poly 0xEDB88320, init all-ones,
// complemented transmission, magic residues 0xF0B8 / 0xDEBB20E3).
package crc
