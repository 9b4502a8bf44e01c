package hdlc

import (
	"errors"

	"repro/internal/crc"
)

// Errors reported per frame by the Tokenizer.
var (
	// ErrAborted marks a frame terminated by the abort sequence
	// (Escape immediately followed by Flag, RFC 1662 §4.3).
	ErrAborted = errors.New("hdlc: frame aborted")
	// ErrRunt marks an inter-flag span too short to hold any frame.
	ErrRunt = errors.New("hdlc: runt frame")
	// ErrOversize marks a frame exceeding the tokenizer's MaxFrame.
	ErrOversize = errors.New("hdlc: frame exceeds maximum size")
)

// Token is one delineated, destuffed frame (or framing error) produced by
// the Tokenizer. Body excludes the flags and has stuffing removed; the FCS
// field is still present at the tail.
//
// Body aliases the Tokenizer's internal arena: it is valid until the
// next Feed call on the same Tokenizer, which recycles the storage.
// Consume or copy every token before feeding more stream bytes.
type Token struct {
	Body []byte
	Err  error
	// FCSOK is the frame-check verdict: with the Tokenizer's FCS mode
	// armed, the closing flag folds Body once, at datapath width, and
	// FCSOK reports whether the register landed on the mode's magic
	// residue (crc.Size.Check over Body). Meaningful only on
	// complete-frame tokens (Err == nil) of an FCS-armed tokenizer;
	// false otherwise.
	FCSOK bool
}

// Tokenizer performs streaming frame delineation on a raw octet stream:
// flag hunting, abort detection, destuffing, size policing and —
// with FCS armed — frame checking. It holds state across Feed calls so
// frames may straddle arbitrary chunk (or datapath-word) boundaries —
// the condition that forces the 32-bit P5 to handle flags in any byte
// lane.
//
// Feed is the fused receive kernel, the twin of the transmit path
// (ppp.Header.Append): delimiter-free spans are located eight lanes per
// step by DelimiterSpan and bulk-copied into the arena — a span ending
// at the closing flag closes its frame in the same step — and where
// escapes come less than a word apart the branch-free block destuffer
// takes over, so the cost per octet does not depend on where the
// escapes fall. The frame, not the span, is the unit of the FCS: the
// in-progress frame is contiguous in the arena however the stream was
// chunked, so the closing flag folds it once through crc.Size.Update's
// wide kernel, and aborts, runts, oversize discards and hunting never
// touch the CRC. ReferenceTokenizer retains the byte-at-a-time loop,
// with a per-octet check of its own, as the differential-fuzz model.
//
// Destuffed bytes land in a single reusable arena (compacted at each
// Feed), so the steady-state receive path allocates nothing once the
// arena has grown to the working set.
type Tokenizer struct {
	// MaxFrame, when non-zero, bounds the destuffed frame size; longer
	// frames are reported with ErrOversize and the remainder discarded
	// until the next flag.
	MaxFrame int
	// MinFrame, when non-zero, is the smallest valid frame body
	// (typically the FCS size plus one); shorter inter-flag spans are
	// reported with ErrRunt. Zero-length spans (back-to-back flags) are
	// always silently skipped.
	MinFrame int
	// FCS, when non-zero, arms the frame check: complete-frame tokens
	// carry the verdict of the selected size in Token.FCSOK. Zero
	// leaves checking to the consumer.
	FCS crc.Size

	arena   []byte // destuffed bytes; the in-progress frame is arena[start:]
	start   int    // arena offset of the in-progress frame
	esc     bool   // escape octet pending
	inFrame bool   // seen an opening flag
	drop    bool   // discarding until next flag (after oversize)

	// Counters for the OAM status registers.
	Frames   uint64 // complete frames emitted
	Aborts   uint64 // aborted frames
	Runts    uint64 // runt spans
	Oversize uint64 // oversize frames
}

// Feed consumes raw stream octets, appending any complete frame tokens to
// out and returning it. Feed never retains chunk. Bodies of previously
// returned tokens are invalidated: the arena is compacted (any partial
// frame moves to the front) and recycled.
func (t *Tokenizer) Feed(out []Token, chunk []byte) []Token {
	if t.start > 0 {
		n := copy(t.arena, t.arena[t.start:])
		t.arena = t.arena[:n]
		t.start = 0
	}
	// dense: the last clean span was shorter than a word. A property of
	// the input, re-measured at every span; it only picks which of two
	// equivalent paths handles the next escape.
	dense := false
	for len(chunk) > 0 {
		if !t.inFrame || t.drop {
			// Hunting (inter-frame idle fill is ignored; HDLC links may
			// idle with flags or 0xFF fill) or discarding an oversize
			// frame: nothing lands in the arena until the next flag, so
			// the word-parallel flag hunt skips the span in bulk.
			i := findFlag(chunk)
			if i < 0 {
				return out
			}
			out = t.closeFrame(out)
			chunk = chunk[i+1:]
			continue
		}
		switch b := chunk[0]; {
		case b == Flag:
			out = t.closeFrame(out)
			chunk = chunk[1:]
		case t.esc:
			t.esc = false
			t.push(b ^ XorBit)
			chunk = chunk[1:]
		case b == Escape && !dense:
			// A lone escape after a long clean span costs one step.
			t.esc, dense = true, true
			chunk = chunk[1:]
		case b == Escape:
			chunk = chunk[t.pushBlock(chunk):]
		default:
			// Ordinary bytes up to the next delimiter: one bulk copy
			// into the arena, and the frame closed if a flag ends it.
			n := DelimiterSpan(chunk)
			dense = n < 8
			t.pushSpan(chunk[:n])
			if n < len(chunk) && chunk[n] == Flag {
				out = t.closeFrame(out)
				n++
			}
			chunk = chunk[n:]
		}
	}
	return out
}

// push appends one destuffed octet to the in-progress frame, policing
// MaxFrame.
func (t *Tokenizer) push(b byte) {
	t.arena = append(t.arena, b)
	t.police()
}

// pushSpan appends a delimiter-free span in bulk.
func (t *Tokenizer) pushSpan(p []byte) {
	t.arena = append(t.arena, p...)
	t.police()
}

// pushBlock destuffs the head of chunk — up to BlockOctets, cut at the
// first flag — into the arena with the block kernel. It returns the
// number of line octets consumed.
func (t *Tokenizer) pushBlock(chunk []byte) int {
	blk := chunk[:min(len(chunk), BlockOctets)]
	if i := findFlag(blk); i >= 0 {
		blk = blk[:i]
	}
	t.arena, t.esc = destuffBlock(t.arena, blk, false)
	t.police()
	return len(blk)
}

// police starts discarding once the in-progress frame exceeds MaxFrame.
// Octets the block kernel landed past the limit are dropped with the
// frame, and so is an escape it left pending: the oversize octet came
// first, so a flag straight after reports ErrOversize, not ErrAborted.
func (t *Tokenizer) police() {
	if t.MaxFrame > 0 && len(t.arena)-t.start > t.MaxFrame {
		t.drop = true
		t.esc = false
		t.Oversize++
	}
}

// closeFrame handles a Flag octet: emit, skip, or report the span ended.
func (t *Tokenizer) closeFrame(out []Token) []Token {
	wasEsc, wasDrop, wasIn := t.esc, t.drop, t.inFrame
	t.esc = false
	t.drop = false
	t.inFrame = true // a flag both closes and opens a frame
	if !wasIn {
		return out
	}
	body := t.arena[t.start:]
	switch {
	case wasEsc:
		// Escape followed by flag: deliberate abort.
		t.arena = t.arena[:t.start]
		t.Aborts++
		return append(out, Token{Err: ErrAborted})
	case wasDrop:
		t.arena = t.arena[:t.start]
		return append(out, Token{Err: ErrOversize})
	case len(body) == 0:
		// Back-to-back flags or shared flag: no frame.
		return out
	case t.MinFrame > 0 && len(body) < t.MinFrame:
		t.arena = t.arena[:t.start]
		t.Runts++
		return append(out, Token{Err: ErrRunt})
	default:
		t.Frames++
		t.start = len(t.arena)
		// One fold over the contiguous body it is about to hand out.
		return append(out, Token{Body: body, FCSOK: t.FCS != 0 && t.FCS.Check(body)})
	}
}
