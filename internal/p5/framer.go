package p5

import (
	"encoding/binary"

	"repro/internal/rtl"
)

// TxJob is one datagram waiting in shared memory for transmission.
type TxJob struct {
	// Address overrides the programmed HDLC address when non-zero
	// (MAPOS destination addressing).
	Address byte
	// Protocol is the PPP protocol number of the payload.
	Protocol uint16
	// Payload is the information field. The framer reads it in place,
	// a word per clock, as a DMA engine reads shared memory: it must
	// not change until the frame has left the framer.
	Payload []byte
	// Abort deliberately aborts the frame mid-payload (test hook for
	// the abort datapath).
	Abort bool
}

// Framer is the transmitter control unit: a framing FSM that reads
// datagrams from the shared-memory queue and streams the frame body —
// address, control, protocol, payload — W octets per clock, marking
// frame boundaries for the CRC and Escape Generate units downstream.
type Framer struct {
	Out *rtl.Wire

	// W is the datapath width in octets.
	W int
	// Regs is the OAM register file supplying the transmit enable and
	// the programmable address and control values.
	Regs *Regs
	// Ring, when set, is the shared-memory descriptor ring jobs are
	// pulled from after the direct queue is empty.
	Ring *ring[TxJob]

	clockSample

	queue []TxJob
	head  int // index of the next queued job; queue[:head] is consumed

	// The frame on the wire: its job, the 4-octet head (address,
	// control, protocol) in the low lanes of hdr, its body length and
	// the offset of the next word. size == 0 means no frame.
	job       TxJob
	hdr       uint64
	size, off int

	// Counters surfaced through the OAM.
	OctetsRead uint64
}

// Enqueue appends jobs to the shared-memory transmit queue.
func (fr *Framer) Enqueue(jobs ...TxJob) { fr.queue = append(fr.queue, jobs...) }

// busy reports whether a frame is mid-transmission or queued.
func (fr *Framer) busy() bool {
	return fr.size != 0 || fr.head < len(fr.queue) || (fr.Ring != nil && fr.Ring.count() > 0)
}

// nextJob pulls from the direct queue first, then the descriptor ring.
// The queue is consumed by head index — the backing array keeps its
// capacity and is rewound once drained, so a steady enqueue/drain cycle
// stops allocating queue headers.
func (fr *Framer) nextJob() (TxJob, bool) {
	if fr.head < len(fr.queue) {
		job := fr.queue[fr.head]
		fr.queue[fr.head] = TxJob{} // drop the payload reference
		fr.head++
		if fr.head == len(fr.queue) {
			fr.queue, fr.head = fr.queue[:0], 0
		}
		return job, true
	}
	if fr.Ring != nil {
		return fr.Ring.poll()
	}
	return TxJob{}, false
}

// Eval implements rtl.Module.
func (fr *Framer) Eval() {
	cfg := fr.get(fr.Regs)
	if cfg.ctrl&ctrlTxEnable == 0 {
		return
	}
	if fr.size == 0 {
		job, ok := fr.nextJob()
		if !ok {
			return
		}
		addr := job.Address
		if addr == 0 {
			addr = cfg.rx.Address
		}
		fr.job, fr.off, fr.size = job, 0, 4+len(job.Payload)
		fr.hdr = uint64(addr) | uint64(cfg.control)<<8 | uint64(job.Protocol>>8)<<16 | uint64(byte(job.Protocol))<<24
	}
	if !fr.Out.CanPush() {
		return
	}
	n := min(fr.W, fr.size-fr.off)
	f := rtl.Flit{Data: fr.word(n), N: n}
	f.SOF = fr.off == 0
	fr.off += n
	if fr.off == fr.size {
		f.EOF, f.Abort = true, fr.job.Abort
		fr.job, fr.size = TxJob{}, 0 // drop the payload reference
	}
	fr.OctetsRead += uint64(n)
	fr.Out.Push(f)
}

// word returns the n body octets at fr.off: the head's, then the
// payload's, loaded a word at a time straight from the job.
func (fr *Framer) word(n int) uint64 {
	if fr.off >= 4 {
		return loadWord(fr.job.Payload, fr.off-4, n)
	}
	k := 4 - fr.off // head octets left
	w := fr.hdr >> (8 * uint(fr.off))
	if n > k {
		w |= loadWord(fr.job.Payload, 0, n-k) << (8 * uint(k))
	}
	return w & laneMask(n)
}

// loadWord returns p[i:i+n] (n ≤ 8) as a word: one 8-octet load except
// within 8 octets of p's end.
func loadWord(p []byte, i, n int) uint64 {
	if i+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[i:]) & laneMask(n)
	}
	var b [8]byte
	copy(b[:], p[i:i+n])
	return binary.LittleEndian.Uint64(b[:])
}
