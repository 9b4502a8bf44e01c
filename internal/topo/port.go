package topo

// Port is one end of a circuit at its endpoint node: the add queue(s)
// feeding the ring and the drop side recovering the peer's stream. In
// UPSR mode the add side dual-feeds both rotations with identical
// octets and the drop side runs the non-revertive path selector; in
// BLSR mode the port adds on its short-path rotation only and the ring
// switch (not the port) heals failures.
//
// The overlay stack (a gigapos Link, or any byte-synchronous HDLC
// source) pushes its line stream with Send and drains the selected
// receive stream with Recv once per tick. When the add queue runs dry
// the slot is filled with HDLC flags, exactly like an idle synchronous
// payload envelope.
type Port struct {
	Circ *Circuit
	Peer int // peer endpoint node ID

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

	sel  Rotation
	down bool

	// Counters and hooks.
	Switches     uint64
	LastSwitchAt int64
	LastFailover int64 // outage ticks healed by the last switch
	FillOctets   uint64
	RxDrops      uint64
	// OnSwitch observes every selector movement with the outage length
	// it healed; OnDown observes squelch transitions (both paths dead /
	// recovered).
	OnSwitch func(now int64, from, to Rotation, outage int64)
	OnDown   func(now int64, down bool)
}

func newPort(n *Node, c *Circuit, peer int) *Port {
	p := &Port{Circ: c, Peer: peer, node: n, sel: East}
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

// Selected returns the rotation the drop side currently delivers.
func (p *Port) Selected() Rotation { return p.sel }

// Down reports whether the circuit is squelched at this end: no
// rotation currently delivers the peer's traffic.
func (p *Port) Down() bool { return p.down }

// Send enqueues line octets for transmission toward the peer. UPSR
// dual-feeds both rotations; BLSR feeds the short path.
func (p *Port) Send(b []byte) {
	if p.node.ring.Cfg.Mode == UPSR {
		p.txq[East].pushSlice(b)
		p.txq[West].pushSlice(b)
		return
	}
	p.txq[p.txRot].pushSlice(b)
}

// Recv appends the selected rotation's received octets to dst and
// discards the other rotation's backlog. Call once per tick.
func (p *Port) Recv(dst []byte) []byte {
	dst = p.rxq[p.sel].drain(dst)
	p.rxq[p.sel.opp()].reset()
	return dst
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
			p.LastSwitchAt = now
			p.LastFailover = outage
			if p.OnSwitch != nil {
				p.OnSwitch(now, cur, p.sel, outage)
			}
		}
	}
	down := p.pathDown(p.sel)
	if p.node.ring.Cfg.Mode == UPSR {
		down = down && p.pathDown(p.sel.opp())
	}
	if down != p.down {
		p.down = down
		if p.OnDown != nil {
			p.OnDown(now, down)
		}
	}
}
