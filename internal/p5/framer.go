package p5

import (
	"repro/internal/rtl"
)

// TxJob is one datagram waiting in shared memory for transmission.
type TxJob struct {
	// Address overrides the programmed HDLC address when non-zero
	// (MAPOS destination addressing).
	Address byte
	// Protocol is the PPP protocol number of the payload.
	Protocol uint16
	// Payload is the information field.
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
	Ring *Ring[TxJob]

	// cfg is the clock's register sample when a System or Pair drives
	// the clock; nil on a bare Sim, where the framer samples Regs into
	// own itself.
	cfg *config
	own config

	queue []TxJob
	head  int // index of the next queued job; queue[:head] is consumed
	cur   []byte
	free  [][]byte // recycled body buffers, refilled at EOF
	abort bool
	off   int

	// Counters surfaced through the OAM.
	FramesStarted uint64
	OctetsRead    uint64
}

// Enqueue appends jobs to the shared-memory transmit queue.
func (fr *Framer) Enqueue(jobs ...TxJob) { fr.queue = append(fr.queue, jobs...) }

// Busy reports whether a frame is mid-transmission or queued.
func (fr *Framer) Busy() bool {
	return fr.cur != nil || fr.head < len(fr.queue) || (fr.Ring != nil && fr.Ring.Len() > 0)
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
			fr.queue = fr.queue[:0]
			fr.head = 0
		}
		return job, true
	}
	if fr.Ring != nil {
		return fr.Ring.Poll()
	}
	return TxJob{}, false
}

// Eval implements rtl.Module.
func (fr *Framer) Eval() {
	cfg := fr.cfg
	if cfg == nil && fr.Regs != nil {
		cfg = &fr.own
		fr.Regs.sample(cfg)
	}
	if cfg != nil && cfg.ctrl&CtrlTxEnable == 0 {
		return
	}
	if fr.cur == nil {
		job, ok := fr.nextJob()
		if !ok {
			return
		}
		fr.cur = fr.buildBody(&job)
		fr.abort = job.Abort
		fr.off = 0
		fr.FramesStarted++
	}
	if !fr.Out.CanPush() {
		return
	}
	end := fr.off + fr.W
	if end > len(fr.cur) {
		end = len(fr.cur)
	}
	f := rtl.FlitOf(fr.cur[fr.off:end])
	f.SOF = fr.off == 0
	f.EOF = end == len(fr.cur)
	if f.EOF && fr.abort {
		f.Abort = true
	}
	fr.OctetsRead += uint64(f.N)
	fr.off = end
	if f.EOF {
		// The flit pipeline copies octets lane by lane, so the body
		// buffer is free for the next job the moment EOF is pushed.
		fr.free = append(fr.free, fr.cur)
		fr.cur = nil
	}
	fr.Out.Push(f)
}

// buildBody assembles the uncompressed header plus payload (the FCS is
// appended downstream by the CRC unit). Buffers come from a free list
// refilled at EOF, so the steady state stops allocating per frame.
func (fr *Framer) buildBody(job *TxJob) []byte {
	addr := job.Address
	if addr == 0 {
		addr = fr.Regs.Address()
	}
	var body []byte
	if n := len(fr.free); n > 0 {
		body = fr.free[n-1][:0]
		fr.free = fr.free[:n-1]
	} else {
		body = make([]byte, 0, 4+len(job.Payload))
	}
	body = append(body, addr, fr.Regs.Control(),
		byte(job.Protocol>>8), byte(job.Protocol))
	return append(body, job.Payload...)
}
