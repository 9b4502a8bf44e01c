package hdlc

// This file is the byte-at-a-time oracle for both fused kernels; only
// tests may name what it exports (TestOracleStaysAnOracle in the root
// package).

// ReferenceTokenizer is the retained byte-at-a-time frame delineator: the
// pre-fusion Tokenizer.Feed loop, kept as the differential-fuzz model for
// the span-based fused kernel (FuzzFusedDecode). It shares the Tokenizer
// state machine, push and closeFrame — so the CRC fold goes through the
// per-octet table path where the fused kernel uses span slicing, making
// the two genuinely independent where it matters — and must produce an
// identical token sequence (bodies, errors, FCS verdicts, counters) for
// any input under any chunking.
type ReferenceTokenizer struct {
	Tokenizer
}

// Feed consumes raw stream octets one at a time, appending any complete
// frame tokens to out. Same contract as Tokenizer.Feed.
func (t *ReferenceTokenizer) Feed(out []Token, chunk []byte) []Token {
	if t.start > 0 {
		n := copy(t.arena, t.arena[t.start:])
		t.arena = t.arena[:n]
		t.start = 0
	}
	for _, b := range chunk {
		switch {
		case b == Flag:
			out = t.closeFrame(out)
		case !t.inFrame:
			// Hunting: ignore inter-frame fill.
		case t.drop:
			// Discarding an oversize frame.
		case t.esc:
			t.esc = false
			t.push(b ^ XorBit)
		case b == Escape:
			t.esc = true
		default:
			t.push(b)
		}
	}
	return out
}

// ReferenceEncode appends a fully framed encoding of body to dst:
// opening flag, stuffed body, closing flag. If shareFlag is true and dst
// already ends with a flag, the opening flag is omitted (RFC 1662 allows
// a single flag between frames). It stuffs byte at a time on purpose: it
// is the oracle the fused transmit kernel (ppp.AppendFramed) is fuzzed
// against, so it shares nothing with the word-parallel path.
func ReferenceEncode(dst, body []byte, m ACCM, shareFlag bool) []byte {
	if !shareFlag || len(dst) == 0 || dst[len(dst)-1] != Flag {
		dst = append(dst, Flag)
	}
	dst = Stuff(dst, body, m)
	return append(dst, Flag)
}
