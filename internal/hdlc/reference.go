package hdlc

import "repro/internal/crc"

// This file is the byte-at-a-time oracle for both fused kernels; only
// tests may name what it exports (TestOracleStaysAnOracle in the root
// package).

// ReferenceTokenizer is the retained byte-at-a-time frame delineator: the
// pre-fusion Tokenizer.Feed loop, kept as the differential-fuzz model for
// the span-based fused kernel (FuzzFusedDecode). It shares the Tokenizer
// state machine, push and closeFrame, but not the frame check: the
// embedded tokenizer runs unarmed and the verdict is the oracle's own
// Sarwate walk over the body, one octet per step, where the fused
// kernel folds at datapath width — the two are independent where it
// matters. It must produce an identical token sequence (bodies, errors,
// FCS verdicts, counters) for any input under any chunking.
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
	mode, first := t.FCS, len(out)
	t.FCS = 0 // closeFrame must not lend the oracle the fold it checks
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
	t.FCS = mode
	for i := first; i < len(out); i++ {
		out[i].FCSOK = mode != 0 && out[i].Err == nil && referenceCheck(mode, out[i].Body)
	}
	return out
}

// push appends one destuffed octet to the in-progress frame, policing
// MaxFrame.
func (t *ReferenceTokenizer) push(b byte) {
	t.arena = append(t.arena, b)
	t.oversize(len(t.arena))
}

// referenceCheck is the per-octet frame check: the Sarwate table walked
// over body, FCS field included, must land on the magic residue.
func referenceCheck(mode crc.Size, body []byte) bool {
	if mode == crc.FCS16Mode {
		return len(body) >= 2 && crc.Table16(crc.Init16, body) == crc.Good16
	}
	return len(body) >= 4 && crc.Table32(crc.Init32, body) == crc.Good32
}

// ReferenceEncode appends a fully framed encoding of body to dst:
// opening flag, stuffed body, closing flag. If shareFlag is true and dst
// already ends with a flag, the opening flag is omitted (RFC 1662 allows
// a single flag between frames). It stuffs byte at a time on purpose: it
// is the oracle the fused transmit kernel (ppp.Header.Append) is fuzzed
// against, so it shares nothing with the word-parallel path.
func ReferenceEncode(dst, body []byte, m ACCM, shareFlag bool) []byte {
	if !shareFlag || len(dst) == 0 || dst[len(dst)-1] != Flag {
		dst = append(dst, Flag)
	}
	dst = Stuff(dst, body, m)
	return append(dst, Flag)
}
