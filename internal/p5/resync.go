package p5

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/rtl"
)

// resync is the resynchronisation buffer all three byte sorters share:
// Escape Generate, the Delineator and Escape Detect. An entry is either a
// frame octet or an end-of-frame marker. Octets live in one byte lane,
// their marks in a parallel flag lane, so a word goes in with one 8-octet
// store per lane and comes out with one load per lane — the buffer moves
// words, as the hardware's does. Markers take an entry of their own and
// travel in-band, so frame boundaries can never be lost or reordered,
// whatever the cycle-level interleaving.
//
// The live entries are oct[head:tail]; each lane carries an 8-entry
// margin past its room so a word load or store never needs a bounds
// split. When a push finds no room behind the tail, the live entries
// slide to the front; the room (four times the power of two at or above
// the owning unit's bufCap, so slides are rare) doubles only if they
// still do not fit. The units bound the octets they commit, but not the
// in-band markers, so a stalled run of tiny frames is the one thing that
// can grow it: the buffer doubles rather than drop a boundary.
type resync struct {
	oct, flg   []byte // octet and flag lanes, room+8 long
	head, tail int
	limit      int // the owning unit's bufCap, latched by reserve
	HighWater  int
}

// Flag-lane bits of an entry.
const (
	flagSOF   byte = 1 << iota // octet: the first of its frame
	flagMark                   // end-of-frame marker (its octet is unused)
	flagErr                    // on markers: frame damaged
	flagAbort                  // on markers: frame deliberately aborted
)

// lanesOf repeats an entry's flag byte in all eight lanes of a word.
const lanesOf = 0x0101010101010101

// resyncRoom is the room a buffer of bufCap octets starts with.
func resyncRoom(bufCap int) int { return 4 << bits.Len(uint(bufCap-1)) }

// reserve allocates the lanes for a unit of bufCap octets.
func (q *resync) reserve(bufCap int) {
	q.limit = bufCap
	q.resize(resyncRoom(bufCap))
}

// resize moves the live entries to the front of lanes of the given room:
// the same lanes when the room is unchanged, fresh ones otherwise.
func (q *resync) resize(room int) {
	oct, flg := q.oct, q.flg
	if room != q.room() {
		oct, flg = make([]byte, room+8), make([]byte, room+8)
	}
	n := copy(oct, q.oct[q.head:q.tail])
	copy(flg, q.flg[q.head:q.tail])
	q.oct, q.flg, q.head, q.tail = oct, flg, 0, n
}

// room is the number of entries the lanes hold.
func (q *resync) room() int { return len(q.oct) - 8 }

// count is the number of entries, markers included.
func (q *resync) count() int { return q.tail - q.head }

// extend makes room for k more entries behind the tail — one room check
// and one high-water update however many — and returns the tail's index.
func (q *resync) extend(k int) int {
	if q.tail+k > q.room() {
		room := q.room()
		for q.count()+k > room {
			room *= 2
		}
		q.resize(room)
	}
	t := q.tail
	q.tail += k
	if n := q.count(); n > q.HighWater {
		q.HighWater = n
	}
	return t
}

// push appends the n (0..8) low lanes of data as frame octets, the first
// marked start-of-frame if sof.
func (q *resync) push(data uint64, n int, sof bool) {
	t := q.extend(n)
	var f uint64
	if sof {
		f = uint64(flagSOF)
	}
	binary.LittleEndian.PutUint64(q.oct[t:], data)
	binary.LittleEndian.PutUint64(q.flg[t:], f)
}

// mark appends an end-of-frame marker.
func (q *resync) mark(err, abort bool) {
	f := flagMark
	if err {
		f |= flagErr
	}
	if abort {
		f |= flagAbort
	}
	t := q.extend(1) // before indexing: extend may move the lanes
	q.flg[t] = f
}

// word returns the first n (≤ 8, ≤ Len) octets as a word.
func (q *resync) word(n int) uint64 {
	return binary.LittleEndian.Uint64(q.oct[q.head:]) & laneMask(n)
}

// drop removes the n oldest entries; an emptied buffer rewinds to the
// front for free.
func (q *resync) drop(n int) {
	q.head += n
	if q.head == q.tail {
		q.head, q.tail = 0, 0
	}
}

// pack assembles up to w octets from the front into a flit, stopping at
// (and consuming) an end-of-frame marker — also one that immediately
// follows a full word, so full-word frame tails still carry their EOF.
// It returns the flit, the number of entries it spans, and whether
// anything was buffered.
func (q *resync) pack(w int) (f rtl.Flit, take int, ok bool) {
	n := q.count()
	if n == 0 {
		return f, 0, false
	}
	flags := binary.LittleEndian.Uint64(q.flg[q.head:]) & laneMask(min(n, 8))
	at := bits.TrailingZeros64(flags&(lanesOf*uint64(flagMark))) / 8 // 8: not in the first word
	if at == 8 && (n <= 8 || q.flg[q.head+8]&flagMark == 0) {
		at = 9 // none in reach; the entry behind a full 64-bit word is not one
	}
	take = min(n, w, at)
	f = rtl.Flit{Data: q.word(take), N: take}
	f.SOF = flags&laneMask(take)&(lanesOf*uint64(flagSOF)) != 0
	if at <= take && at < n {
		m := q.flg[q.head+at]
		f.EOF, f.Err, f.Abort = true, m&flagErr != 0, m&flagAbort != 0
		take++
	}
	return f, take, true
}

// laneMask is the bitmask of the n low lanes of a word (n ≤ 8).
func laneMask(n int) uint64 { return 1<<(8*uint(n)) - 1 }
