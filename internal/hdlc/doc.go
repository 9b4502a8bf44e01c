// Package hdlc implements HDLC-like framing for PPP (RFC 1662): flag
// delimiting, octet stuffing/destuffing, async-control-character maps,
// and a streaming frame tokenizer.
//
// Two stuffing code paths are provided deliberately:
//
//   - the byte-at-a-time path (Stuff/destuff), the software mirror of the
//     paper's 8-bit P5 datapath, and
//   - the word-parallel SWAR path (one delimiter bitmap per 64-octet
//     block, sixteen lanes per SSE2 compare on amd64 and eight per
//     word elsewhere, and the bitmap's set bits walked; dense blocks
//     and sub-block tails through word sorters that resolve every lane
//     without a branch on the data, one PSHUFB per word on amd64 with
//     SSSE3 and a lane loop elsewhere), the software mirror of the 32-bit
//     P5 datapath where a flag or escape can appear in any lane of the
//     word.
//
// Both produce identical byte streams. Production frames take the
// word-parallel path only (Tokenizer.Feed, and AppendStuffed under
// ppp.Header.Append for transmit), with Stuff/destuff as its sub-word
// tails; reference.go builds the byte-at-a-time path into a complete
// encoder and tokenizer for tests, which hold the fast path and the P5
// cycle-accurate model in internal/p5 to it.
package hdlc
