// Package topo is the multi-node ring simulator: SONET add/drop nodes
// joined by directional spans, carrying slotted circuits with UPSR
// path-selector protection or a BLSR-style ring switch layered on K1/K2
// signalling. It is the topology layer above the point-to-point
// machinery — each span is a real internal/sonet framer/deframer pair
// behind a channel.Line delay/jitter pipe and an optional fault
// injector, so every section-layer behaviour (alignment hunt, defect
// integration, K-byte persistence) is exercised exactly as on a linear
// link.
//
// # Model
//
// A ring of N nodes has two rotations: East spans carry node i → i+1,
// West spans carry node i → i-1. Every span moves one transport frame
// per tick (the 125 µs frame cadence), so tick T of a span occupies
// octets [T·FrameBytes, (T+1)·FrameBytes) of its fault-script
// coordinate space. The payload of each frame is divided into slots
// (four) contiguous blocks; a slot is a circuit: the unit of add/drop,
// pass-through, and protection switching.
//
// Per slot a node either terminates (an endpoint Port adds its own
// transmit stream and drops arrivals) or passes through, re-emitting
// the arriving slot octets on the same rotation one tick later
// (store-and-forward). A pass node whose upstream span has a
// service-affecting defect inserts path AIS (0xFF fill) for the slots
// it forwards, so a failure anywhere on the path is visible at the
// drop node within a few ticks even when the drop node's own spans are
// clean.
//
// In UPSR mode an endpoint dual-feeds both rotations and the drop side
// runs a non-revertive path selector per circuit: it leaves the
// selected rotation only when that path goes down (local span defect
// or a sustained AIS run) while the other is up. In BLSR mode the
// first half of the slots is working capacity, the second half is the
// shared protection reservation; a RingAPS state machine per node
// drives ring switches (wraps) from local defects and K1/K2 ring
// requests carrying node IDs — see ringaps.go.
package topo

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sonet"
)

// Rotation identifies one of the ring's two directed fibre rotations.
type Rotation int

// The rotations. East spans run node i → i+1 (mod N), West spans run
// node i → i-1.
const (
	East Rotation = iota
	West
)

// opp returns the opposite rotation.
func (r Rotation) opp() Rotation { return 1 - r }

func (r Rotation) String() string {
	if r == East {
		return "east"
	}
	return "west"
}

// Mode selects the ring protection architecture.
type Mode int

const (
	// UPSR: unidirectional path-switched ring — circuits are dual-fed
	// on both rotations and each drop runs a path selector.
	UPSR Mode = iota
	// BLSR: bidirectional line-switched ring — half the slots are
	// protection capacity and failures are healed by wrapping at the
	// nodes adjacent to the break, negotiated over K1/K2.
	BLSR
)

func (m Mode) String() string {
	if m == BLSR {
		return "blsr"
	}
	return "upsr"
}

// Path AIS and idle fill octets. AIS is the all-ones maintenance
// signal inserted for a slot whose upstream has failed; idle slots
// carry HDLC flags so an overlaid byte-synchronous PPP stream sees
// ordinary inter-frame fill.
const (
	aisOctet  = 0xFF
	idleOctet = 0x7E
)

// level is every span's transport level.
const level = sonet.STM1

// slots is every ring's slot plan: four payload blocks per frame, which
// divide the STM-1 payload and halve evenly into BLSR working and
// protection capacity.
const slots = 4

// aisThreshold is the consecutive-0xFF run that declares path AIS at a
// drop port: 1024 octets (just under two STM-1 slot blocks), long
// enough that payload bytes never fake it.
const aisThreshold = 1024

// Config parameterises a ring.
type Config struct {
	Nodes int // ring size (2..16; BLSR needs node IDs ≤ 15)
	Mode  Mode

	// Span transmission characteristics, applied to every span: fixed
	// propagation Delay in ticks and uniform extra Jitter in
	// [0, Jitter], never reordering a fibre. Jitter draws derive from
	// Seed, per span, so a topology is exactly reproducible.
	Delay  int64
	Jitter int64
	Seed   uint64

	// WTR is the BLSR ring wait-to-restore in ticks: how long a
	// locally-detected failure must stay clear before the wrap is
	// released. 0 reverts immediately.
	WTR int64
}

// Circuit is a bidirectional slot between two endpoint nodes.
type Circuit struct {
	Name string
	A, B int // endpoint node IDs
	Slot int
}

// Ring is the simulator: nodes, 2N directed spans, and the circuits
// provisioned over them. Drive it with Tick once per 125 µs frame
// time.
type Ring struct {
	Cfg   Config
	block int // octets per slot block per frame

	nodes    []*Node
	spans    [2][]*Span // [rotation][source node]
	slotCirc []*Circuit // slot -> owning circuit
	now      int64

	popBuf [][]byte
}

// NewRing builds a ring from cfg.
func NewRing(cfg Config) (*Ring, error) {
	if cfg.Nodes < 2 || cfg.Nodes > 16 {
		return nil, fmt.Errorf("topo: ring size %d outside 2..16", cfg.Nodes)
	}
	r := &Ring{
		Cfg:      cfg,
		block:    level.PayloadBytes() / slots,
		slotCirc: make([]*Circuit, slots),
	}
	for i := 0; i < cfg.Nodes; i++ {
		r.nodes = append(r.nodes, newNode(r, i))
	}
	for i := 0; i < cfg.Nodes; i++ {
		r.spans[East] = append(r.spans[East], newSpan(r, East, i, (i+1)%cfg.Nodes))
		r.spans[West] = append(r.spans[West], newSpan(r, West, i, (i-1+cfg.Nodes)%cfg.Nodes))
	}
	return r, nil
}

// spanSeed derives a per-span jitter seed from the ring seed.
func spanSeed(base uint64, rot Rotation, idx int) uint64 {
	x := base ^ (uint64(idx)*2 + uint64(rot) + 1)
	return x*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
}

// Node returns node id.
func (r *Ring) Node(id int) *Node { return r.nodes[id] }

// Nodes returns the ring size.
func (r *Ring) Nodes() int { return len(r.nodes) }

// Span returns the directed span leaving node src on rotation rot.
func (r *Ring) Span(rot Rotation, src int) *Span { return r.spans[rot][src] }

// SpansBetween returns the two directed spans of the fibre pair
// joining adjacent nodes u and v: uv carries u → v, vu carries v → u.
func (r *Ring) SpansBetween(u, v int) (uv, vu *Span, err error) {
	n := len(r.nodes)
	switch {
	case (u+1)%n == v: // v is u's East neighbour
		return r.spans[East][u], r.spans[West][v], nil
	case (v+1)%n == u: // v is u's West neighbour
		return r.spans[West][u], r.spans[East][v], nil
	}
	return nil, nil, fmt.Errorf("topo: nodes %d and %d are not adjacent", u, v)
}

// AddCircuit provisions a bidirectional circuit and returns its two
// endpoint ports (at c.A and c.B respectively). Call before the first
// Tick.
func (r *Ring) AddCircuit(c Circuit) (pa, pb *Port, err error) {
	maxSlot := slots
	if r.Cfg.Mode == BLSR {
		maxSlot = slots / 2 // upper half is protection capacity
	}
	if c.Slot < 0 || c.Slot >= maxSlot {
		return nil, nil, fmt.Errorf("topo: slot %d outside working capacity 0..%d", c.Slot, maxSlot-1)
	}
	if r.slotCirc[c.Slot] != nil {
		return nil, nil, fmt.Errorf("topo: slot %d already owned by %q", c.Slot, r.slotCirc[c.Slot].Name)
	}
	if c.A == c.B || c.A < 0 || c.B < 0 || c.A >= len(r.nodes) || c.B >= len(r.nodes) {
		return nil, nil, fmt.Errorf("topo: bad endpoints %d,%d", c.A, c.B)
	}
	cc := c
	r.slotCirc[c.Slot] = &cc
	pa = newPort(r.nodes[c.A], &cc, c.B)
	pb = newPort(r.nodes[c.B], &cc, c.A)
	r.nodes[c.A].ports[c.Slot] = pa
	r.nodes[c.B].ports[c.Slot] = pb
	return pa, pb, nil
}

// Tick advances the whole ring one frame time: deliver due frames into
// the receive sides, run the protection state machines, then build and
// launch one frame per span.
func (r *Ring) Tick(now int64) {
	r.now = now
	// Phase 1: deliveries. Every arriving frame runs the destination's
	// deframer, filling slot queues, defect monitors and K-byte state.
	for rot := East; rot <= West; rot++ {
		for _, s := range r.spans[rot] {
			r.popBuf = s.Line.Pop(now, r.popBuf[:0])
			for _, chunk := range r.popBuf {
				if !r.nodes[s.To].Failed {
					s.df.Feed(chunk)
				}
			}
		}
	}
	// Phase 2: control. Ring APS first (it sets the K bytes the next
	// frames will carry and the wrap state routing consults), then the
	// path selectors.
	for _, n := range r.nodes {
		if n.Failed {
			continue
		}
		if n.raps != nil {
			n.serviceRingAPS(now)
		}
		for _, p := range n.ports {
			p.service(now)
		}
	}
	// Phase 3: transmissions. One frame per span per tick; a failed
	// source leaves the fibre dark (all zeros — no light, LOS at the
	// far end).
	for rot := East; rot <= West; rot++ {
		for _, s := range r.spans[rot] {
			if r.nodes[s.From].Failed {
				s.Line.Push(now, make([]byte, level.FrameBytes()))
				s.DarkFrames++
				continue
			}
			// The delay line keeps the frame in flight across ticks, so
			// it needs its own copy of the framer's reused buffer.
			f := append([]byte(nil), s.fr.NextFrame()...)
			if s.Inject != nil {
				f = s.Inject(f)
			}
			s.Line.Push(now, f)
		}
	}
}

// Node is one add/drop multiplexer on the ring.
type Node struct {
	ID     int
	Failed bool // a failed node processes nothing and leaves its fibres dark

	ring  *Ring
	ports map[int]*Port // slot -> local endpoint
	pass  [2][]deque    // [rotation][slot] pass-through queues
	raps  *ringAPS

	// PassDrops counts pass-queue octets discarded to the depth cap
	// (sustained jitter imbalance).
	PassDrops uint64
}

func newNode(r *Ring, id int) *Node {
	n := &Node{ID: id, ring: r, ports: make(map[int]*Port)}
	for rot := East; rot <= West; rot++ {
		n.pass[rot] = make([]deque, slots)
	}
	if r.Cfg.Mode == BLSR {
		n.raps = newRingAPS(id, r.Cfg.Nodes, r.Cfg.WTR)
	}
	return n
}

// out and in return the spans leaving and entering the node on a
// rotation.
func (n *Node) out(r Rotation) *Span { return n.ring.spans[r][n.ID] }
func (n *Node) in(r Rotation) *Span {
	N := len(n.ring.nodes)
	if r == East {
		return n.ring.spans[East][(n.ID-1+N)%N]
	}
	return n.ring.spans[West][(n.ID+1)%N]
}

// inDefect reports a service-affecting defect on the incoming span of
// a rotation.
func (n *Node) inDefect(r Rotation) bool {
	return n.in(r).df.Defects.Active()&sonet.ServiceAffecting != 0
}

// serviceRingAPS advances the BLSR machine and installs the resulting
// K bytes on the outgoing framers. K bytes are read from the incoming
// deframers' persistence filters each tick (a clean span carries its
// signalling continuously; a dead one carries none).
func (n *Node) serviceRingAPS(now int64) {
	for rot := East; rot <= West; rot++ {
		if n.inDefect(rot) {
			continue
		}
		if k1, k2, ok := n.in(rot).df.APSBytes(); ok {
			n.raps.receiveK(rot, k1, k2, now)
		}
	}
	n.raps.advance(now, n.inDefect(East), n.inDefect(West))
	for rot := East; rot <= West; rot++ {
		k1, k2 := n.raps.txK(rot)
		n.out(rot).fr.K1, n.out(rot).fr.K2 = k1, k2
	}
}

// rxByte routes one recovered payload octet arriving on a rotation.
func (n *Node) rxByte(rot Rotation, slot int, b byte) {
	if n.Failed {
		return
	}
	if n.raps != nil {
		if s2 := slots / 2; slot >= s2 && n.raps.isWrapped(rot) {
			// Unwrap: this node's opposite-rotation incoming span is the
			// broken one; protection arrivals here are the working
			// traffic that went the long way around.
			rot, slot = rot.opp(), slot-s2
		}
	}
	if p, ok := n.ports[slot]; ok && p.dropsFrom(rot) {
		p.rxIn(rot, b)
		return
	}
	q := &n.pass[rot][slot]
	if q.size() >= passCap(n.ring) {
		q.popDiscard()
		n.PassDrops++
	}
	q.push(b)
}

// passCap bounds a pass queue at four frame times of one slot.
func passCap(r *Ring) int { return 4 * r.block }

// txByte supplies one payload octet for the frame being built on an
// outgoing rotation.
func (n *Node) txByte(rot Rotation, slot int) byte {
	s2 := slots / 2
	if n.raps != nil {
		switch {
		case slot >= s2 && n.raps.isWrapped(rot.opp()):
			// Wrap: the opposite rotation's outgoing span is dead, so its
			// working slot rides this rotation's protection capacity the
			// long way around. Circuits whose far side is unreachable
			// (ring split by a second failure) are squelched with AIS so
			// they can never misconnect.
			w := slot - s2
			if c := n.ring.slotCirc[w]; c != nil && !n.raps.reachable(c.A, c.B, n.ring.now) {
				return aisOctet
			}
			return n.workingTx(rot.opp(), w)
		case slot >= s2:
			return n.passTx(rot, slot)
		case n.raps.isWrapped(rot):
			// This outgoing span is declared dead; its working content
			// has been bridged onto the other rotation. Fill the dead
			// fibre with AIS.
			return aisOctet
		}
	}
	return n.workingTx(rot, slot)
}

func (n *Node) workingTx(rot Rotation, slot int) byte {
	if p, ok := n.ports[slot]; ok && p.addsTo(rot) {
		return p.txOut(rot)
	}
	return n.passTx(rot, slot)
}

func (n *Node) passTx(rot Rotation, slot int) byte {
	if b, ok := n.pass[rot][slot].pop(); ok {
		return b
	}
	if n.inDefect(rot) {
		return aisOctet // upstream dead: insert path AIS downstream
	}
	return idleOctet
}

// deque is a minimal byte FIFO with amortised O(1) push/pop and
// periodic compaction.
type deque struct {
	buf  []byte
	head int
}

func (d *deque) push(b byte) {
	d.compact()
	d.buf = append(d.buf, b)
}

func (d *deque) pushSlice(p []byte) {
	d.compact()
	d.buf = append(d.buf, p...)
}

func (d *deque) compact() {
	if d.head > 4096 && d.head > len(d.buf)/2 {
		n := copy(d.buf, d.buf[d.head:])
		d.buf = d.buf[:n]
		d.head = 0
	}
}

func (d *deque) pop() (byte, bool) {
	if d.head >= len(d.buf) {
		d.reset()
		return 0, false
	}
	b := d.buf[d.head]
	d.head++
	return b, true
}

func (d *deque) popDiscard() { d.pop() }

func (d *deque) size() int { return len(d.buf) - d.head }

func (d *deque) reset() {
	d.buf = d.buf[:0]
	d.head = 0
}

func (d *deque) drain(dst []byte) []byte {
	dst = append(dst, d.buf[d.head:]...)
	d.reset()
	return dst
}

// newRand builds the per-span impairment generator.
func newRand(seed uint64) *netsim.Rand { return netsim.NewRand(seed) }
