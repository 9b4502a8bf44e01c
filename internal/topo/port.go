package topo

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Port is one end of a circuit at its endpoint node, a
// transport.LineTransport: Send feeds the add queue(s), Recv drains the
// selected drop stream, Up is false while the circuit is squelched (no
// rotation delivers the peer's traffic). Ring.Tick moves the spans, so
// Tick only refreshes the port's series. In UPSR mode the add side
// dual-feeds both rotations and the drop side runs the non-revertive
// path selector; in BLSR mode the port adds on its short-path rotation
// and the ring switch (not the port) heals failures. A dry add queue is
// filled with HDLC flags, like an idle synchronous payload envelope. A
// ring is driven from one goroutine; Up and Stats are safe from any.
type Port struct {
	Circ *Circuit

	node *Node
	// txRot is the BLSR transmit rotation (shortest path to the peer);
	// rxRot is where the peer's traffic logically arrives.
	txRot, rxRot Rotation

	txq    [2]deque // per-rotation add queues (kept identical in UPSR)
	rxq    [2]deque // per-rotation drop streams
	aisRun [2]int   // consecutive 0xFF octets per rotation
	// lastGood is the tick a non-AIS octet last arrived per rotation —
	// the selector's measure of how long a path has actually been dark
	// when it switches away from it.
	lastGood [2]int64

	sel  Rotation    // the rotation the drop side delivers
	down atomic.Bool // squelched

	rx   [2][]byte // Recv's double buffer, rx[flip] refilled next
	flip int

	mu sync.Mutex      // guards st
	st transport.Stats // Send calls and Recv spans, as chunks

	// Counters.
	Switches     uint64
	LastFailover int64 // outage ticks healed by the last switch
	FillOctets   uint64
	RxDrops      uint64

	onSwitch func(reason, detail string, to, ticks int64) // OnFailover's chain
	tel      *telemetry.Mirror                            // Instrument's
	tr       *telemetry.Tracer
	scope    string
}

func newPort(n *Node, c *Circuit, peer int) *Port {
	p := &Port{Circ: c, node: n, sel: East}
	N := len(n.ring.nodes)
	eastDist := (peer - n.ID + N) % N
	if 2*eastDist <= N {
		p.txRot = East
	} else {
		p.txRot = West
	}
	// The peer's short path to us fixes our receive rotation.
	peerEastDist := (n.ID - peer + N) % N
	if 2*peerEastDist <= N {
		p.rxRot = East
	} else {
		p.rxRot = West
	}
	if n.ring.Cfg.Mode == BLSR {
		p.sel = p.rxRot
	}
	return p
}

// Send enqueues line octets for transmission toward the peer; b is not
// kept. UPSR dual-feeds both rotations; BLSR feeds the short path.
func (p *Port) Send(b []byte) error {
	if p.node.ring.Cfg.Mode == UPSR {
		p.txq[East].pushSlice(b)
		p.txq[West].pushSlice(b)
	} else {
		p.txq[p.txRot].pushSlice(b)
	}
	p.mu.Lock()
	p.st.TxChunks, p.st.TxBytes = p.st.TxChunks+1, p.st.TxBytes+uint64(len(b))
	p.mu.Unlock()
	return nil
}

// Recv appends the selected rotation's received octets to dst as one
// span, valid until the second-following Recv, and discards the other
// rotation's backlog. Call once per tick.
func (p *Port) Recv(dst [][]byte) [][]byte {
	buf := p.rxq[p.sel].drain(p.rx[p.flip][:0])
	p.rxq[p.sel.opp()].reset()
	p.rx[p.flip], p.flip = buf, p.flip^1
	if len(buf) == 0 {
		return dst
	}
	p.mu.Lock()
	p.st.RxChunks, p.st.RxBytes = p.st.RxChunks+1, p.st.RxBytes+uint64(len(buf))
	p.mu.Unlock()
	return append(dst, buf[:len(buf):len(buf)])
}

// Tick refreshes the port's series; Ring.Tick moves the spans.
func (p *Port) Tick(int64) { p.tel.Sync() }

// Up reports that the circuit is not squelched at this end.
func (p *Port) Up() bool { return !p.down.Load() }

// Stats counts Send calls and Recv spans as chunks.
func (p *Port) Stats() transport.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Close does nothing: the circuit belongs to the ring.
func (p *Port) Close() error { return nil }

// OnFailover chains fn onto the path selector's movements, ahead of any
// subscriber already there.
func (p *Port) OnFailover(fn func(reason, detail string, to, ticks int64)) {
	prev := p.onSwitch
	p.onSwitch = func(reason, detail string, to, ticks int64) {
		fn(reason, detail, to, ticks)
		if prev != nil {
			prev(reason, detail, to, ticks)
		}
	}
}

// Instrument declares the port's selector series (link_ring_*) on reg,
// labelled {link=name}, and sends a "ring-squelch" event to tr on every
// squelch transition. Tick refreshes the mirrors.
func (p *Port) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer, name string) {
	lbl := telemetry.L("link", name)
	m := reg.Mirror()
	m.Counter("link_ring_switches_total",
		"Path selector movements at this ring endpoint.",
		func() uint64 { return p.Switches }, lbl)
	m.Counter("link_ring_fill_octets_total",
		"Idle flag octets inserted while the add queue ran dry.",
		func() uint64 { return p.FillOctets }, lbl)
	m.Counter("link_ring_rx_drops_total",
		"Drop-stream octets discarded to the receive depth cap.",
		func() uint64 { return p.RxDrops }, lbl)
	m.Gauge("link_ring_selected_rotation",
		"Rotation the drop selector currently delivers (0 east, 1 west).",
		func() int64 { return int64(p.sel) }, lbl)
	m.Gauge("link_ring_down",
		"1 while the circuit is squelched (no rotation delivers).",
		func() int64 {
			if p.down.Load() {
				return 1
			}
			return 0
		}, lbl)
	m.Sync()
	p.tel, p.tr, p.scope = m, tr, "ring:"+name
}

// dropsFrom reports whether arrivals on rot belong to this port.
func (p *Port) dropsFrom(rot Rotation) bool {
	if p.node.ring.Cfg.Mode == UPSR {
		return true
	}
	return rot == p.rxRot
}

// addsTo reports whether this port sources the slot on rot.
func (p *Port) addsTo(rot Rotation) bool {
	if p.node.ring.Cfg.Mode == UPSR {
		return true
	}
	return rot == p.txRot
}

// txOut supplies the next add octet for a rotation (flag fill when
// idle).
func (p *Port) txOut(rot Rotation) byte {
	if b, ok := p.txq[rot].pop(); ok {
		return b
	}
	p.FillOctets++
	return idleOctet
}

// rxIn accepts one dropped octet from a rotation.
func (p *Port) rxIn(rot Rotation, b byte) {
	if b == aisOctet {
		if p.aisRun[rot] < 1<<30 {
			p.aisRun[rot]++
		}
	} else {
		p.aisRun[rot] = 0
		p.lastGood[rot] = p.node.ring.now
	}
	q := &p.rxq[rot]
	if q.size() >= rxCap(p.node.ring) {
		q.popDiscard()
		p.RxDrops++
	}
	q.push(b)
}

// rxCap bounds a drop stream at sixteen frame times of one slot.
func rxCap(r *Ring) int { return 16 * r.block }

// pathDown reports whether a rotation's path to this drop is dead:
// the local incoming span has a service-affecting defect (and no ring
// wrap is delivering around it), or the slot has carried a sustained
// AIS run inserted by an upstream node.
func (p *Port) pathDown(rot Rotation) bool {
	if p.aisRun[rot] >= aisThreshold {
		return true
	}
	if p.node.inDefect(rot) {
		if p.node.raps != nil && p.node.raps.isWrapped(rot.opp()) {
			return false // unwrap is delivering the long way around
		}
		return true
	}
	return false
}

// service runs the per-tick selector/squelch evaluation.
func (p *Port) service(now int64) {
	if p.node.ring.Cfg.Mode == UPSR {
		cur := p.sel
		if p.pathDown(cur) && !p.pathDown(cur.opp()) {
			outage := now - p.lastGood[cur]
			p.sel = cur.opp()
			p.Switches++
			p.LastFailover = outage
			if p.onSwitch != nil {
				p.onSwitch("ring-switch", p.sel.String(), int64(p.sel), outage)
			}
		}
	}
	down := p.pathDown(p.sel)
	if p.node.ring.Cfg.Mode == UPSR {
		down = down && p.pathDown(p.sel.opp())
	}
	if down != p.down.Load() {
		p.down.Store(down)
		if p.tr != nil {
			var v int64
			if down {
				v = 1
			}
			p.tr.Emit(now, p.scope, "ring-squelch", p.Circ.Name, v, now)
		}
	}
}
