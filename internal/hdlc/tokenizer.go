package hdlc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"repro/internal/crc"
)

// Errors reported per frame by the Tokenizer.
var (
	// ErrAborted marks a frame terminated by the abort sequence
	// (Escape immediately followed by Flag, RFC 1662 §4.3).
	ErrAborted = errors.New("hdlc: frame aborted")
	// errRunt marks an inter-flag span too short to hold any frame.
	errRunt = errors.New("hdlc: runt frame")
	// errOversize marks a frame exceeding the tokenizer's MaxFrame.
	errOversize = errors.New("hdlc: frame exceeds maximum size")
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
// (ppp.Header.Append, hdlc.AppendStuffed): per 64-octet block it builds
// one bitmap of the Flag and Escape octets; clean blocks reach the arena
// as one memmove per clean run, a dirty block walks its set bits —
// closing a frame at each flag in the same walk — and a dense block and
// the sub-block tail take the word sorter (destuffBlock), so the cost
// per octet does not depend on where the escapes fall. The frame, not
// the block, is the unit of the FCS: the in-progress frame is
// contiguous in the arena however the stream was chunked, so the
// closing flag folds it once through crc.Size.Check — on amd64 the
// carry-less fold from 16 octets, a 40-octet frame included — and
// aborts, runts, oversize discards and hunting never touch the CRC.
// ReferenceTokenizer retains the byte-at-a-time loop, with a per-octet
// check of its own, as the differential-fuzz model.
//
// Destuffed bytes land in a single reusable arena (compacted at each
// Feed), so the steady-state receive path allocates nothing once the
// arena has grown to the working set.
type Tokenizer struct {
	// MaxFrame, when non-zero, bounds the destuffed frame size; longer
	// frames are reported with errOversize and the remainder discarded
	// until the next flag.
	MaxFrame int
	// MinFrame, when non-zero, is the smallest valid frame body
	// (typically the FCS size plus one); shorter inter-flag spans are
	// reported with errRunt. Zero-length spans (back-to-back flags) are
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

	// Drop counters: frames discarded, by reason.
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
	for len(chunk) > 0 {
		var n int
		switch {
		case !t.inFrame || t.drop:
			// Hunting (inter-frame idle fill is ignored; HDLC links may
			// idle with flags or 0xFF fill) or discarding an oversize
			// frame: nothing lands in the arena until the next flag, so
			// the stdlib's vector search skips the span in bulk.
			i := bytes.IndexByte(chunk, Flag)
			if i < 0 {
				return out
			}
			out = t.closeFrame(out)
			n = i + flagRun(chunk[i:])
		case chunk[0] == Flag:
			out = t.closeFrame(out)
			n = flagRun(chunk)
		case t.esc || len(chunk) <= BlockOctets:
			// A sub-block tail, or a first octet an escape ending the
			// previous chunk protects: one word-path step.
			out, n = t.words(out, chunk[:min(len(chunk), BlockOctets)])
		default:
			out, n = t.blocks(out, chunk)
		}
		chunk = chunk[n:]
	}
	return out
}

// blocks is the receive block kernel, over the whole blocks of chunk
// that have at least one octet after them — the octet an escape ending
// a block protects. A clean block extends the clean run, which lands in
// the arena through one memmove when a dirty block or the end arrives.
// A dirty block walks its bitmap: each segment is one fixed-width
// store into reserved slack; an escape stores the octet it protects,
// unescaped, and clears that octet's bit, unless it is a flag (the
// abort: the escape stays pending for closeFrame); a flag closes the
// frame in the same walk. A dense block takes the word path. blocks
// returns the octets consumed; it stops early, where the frame's
// remainder is to be discarded, once the frame outgrows MaxFrame.
func (t *Tokenizer) blocks(out []Token, chunk []byte) ([]Token, int) {
	// Room, reserved once, for everything chunk can destuff to and a
	// segment store's overrun; the word path and closeFrame stay inside it.
	n := len(t.arena)
	a := slices.Grow(t.arena, len(chunk)+2*BlockOctets)
	a = a[:cap(a)]
	run, b := 0, 0 // chunk[run:b] is the clean run not yet in the arena
	for b+BlockOctets < len(chunk) {
		var maps [mapBlocks]uint64
		k := blockMaps(&maps, chunk[b:len(chunk)-1], 0)
		for _, bm := range maps[:k] {
			if bm == 0 {
				b += BlockOctets
				continue
			}
			if run > b {
				bm &^= 1 // an escape ending the last block took this octet
			} else if run < b {
				n += copy(a[n:], chunk[run:b])
				if run = b; t.oversize(n) {
					t.arena = a[:n]
					return out, run
				}
			}
			end := b + BlockOctets
			if isDense(bm) {
				// A dense block is the last one mapped: it and the blocks
				// after it that open with a delimiter take the word path.
				t.arena = a[:n]
				if out, run = t.dense(out, chunk, run); t.drop {
					return out, run
				}
				n, b = len(t.arena), run&^(BlockOctets-1)
				break
			}
			for ; ; bm &= bm - 1 {
				p := max(run, end) // the segment after the last delimiter ends the block
				if bm != 0 {
					p = b + bits.TrailingZeros64(bm)
				}
				if len(chunk)-run >= BlockOctets {
					copyBlock((*[BlockOctets]byte)(a[n:]), (*[BlockOctets]byte)(chunk[run:]))
					n += p - run
				} else {
					n += copy(a[n:], chunk[run:p])
				}
				if run = p; t.oversize(n) {
					t.arena = a[:n]
					return out, run
				}
				if bm == 0 {
					break
				}
				if chunk[p] == Flag {
					t.arena = a[:n]
					out = t.closeFrame(out)
					n, run = len(t.arena), p+1
				} else if c := chunk[p+1]; c != Flag {
					a[n] = c ^ XorBit
					n, run = n+1, p+2
					bm &^= 2 << (p - b) // an escaped delimiter is data
				} else {
					t.esc, run = true, p+1 // an abort: the flag's bit is next
				}
			}
			b = end
		}
	}
	if run < b {
		n += copy(a[n:], chunk[run:b])
		run = b
		t.oversize(n)
	}
	t.arena = a[:n]
	return out, run
}

// dense takes the block at run, and each whole block after it that
// opens with a delimiter and has an octet after it, through the word
// path — one call per frame — then the octet an escape ending the last
// one protects, policed like every other octet. It returns the octets
// consumed, stopping early once the frame is to be discarded.
func (t *Tokenizer) dense(out []Token, chunk []byte, run int) ([]Token, int) {
	end := run&^(BlockOctets-1) + BlockOctets
	for opensDirty(chunk[end:len(chunk)-1], 0) {
		end += BlockOctets
	}
	for run < end {
		var used int
		out, used = t.words(out, chunk[run:end])
		if run += used; t.drop {
			return out, run
		}
	}
	if t.esc && chunk[run] != Flag {
		t.arena = append(t.arena, chunk[run]^XorBit)
		run, t.esc = run+1, false
		t.oversize(len(t.arena))
	}
	return out, run
}

// words is the word path, for sub-block tails and dense blocks: src up
// to its first flag through destuffBlock, threading the pending escape,
// then the frame closed at the flag and the flags straight after it
// skipped — idle fill, each closing an empty frame, which is nothing.
// It returns the octets consumed, stopping short of the flag if the
// frame outgrew MaxFrame.
func (t *Tokenizer) words(out []Token, src []byte) ([]Token, int) {
	i := bytes.IndexByte(src, Flag)
	if i < 0 {
		i = len(src)
	}
	t.arena, t.esc = destuffBlock(t.arena, src[:i], t.esc)
	if t.oversize(len(t.arena)) || i == len(src) {
		return out, i
	}
	return t.closeFrame(out), i + flagRun(src[i:])
}

// flagRun returns how many flags open p: the one that closes a frame
// and the idle fill after it, each closing an empty frame, which is
// nothing.
func flagRun(p []byte) int {
	i := 0
	for ; i+8 <= len(p) && binary.LittleEndian.Uint64(p[i:]) == lsbMask*Flag; i += 8 {
	}
	for i < len(p) && p[i] == Flag {
		i++
	}
	return i
}

// oversize reports whether the in-progress frame, n octets into the
// arena, exceeds MaxFrame, and if so starts discarding it. Octets the
// block kernels landed past the limit are dropped with the frame, and so
// is a pending escape: the oversize octet came first, so a flag straight
// after reports errOversize, not ErrAborted.
func (t *Tokenizer) oversize(n int) bool {
	if t.MaxFrame > 0 && n-t.start > t.MaxFrame {
		t.drop = true
		t.esc = false
		t.Oversize++
		return true
	}
	return false
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
		return append(out, Token{Err: errOversize})
	case len(body) == 0:
		// Back-to-back flags or shared flag: no frame.
		return out
	case t.MinFrame > 0 && len(body) < t.MinFrame:
		t.arena = t.arena[:t.start]
		t.Runts++
		return append(out, Token{Err: errRunt})
	default:
		t.start = len(t.arena)
		// One fold over the contiguous body it is about to hand out.
		return append(out, Token{Body: body, FCSOK: t.FCS != 0 && t.FCS.Check(body)})
	}
}
