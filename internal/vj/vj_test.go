package vj

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// tcpPacket builds an option-less TCP/IP datagram.
type tcpPacket struct {
	src, dst     [4]byte
	sport, dport uint16
	seq, ack     uint32
	win          uint16
	urg          uint16
	flags        byte
	id           uint16
	ttl          byte
	data         []byte
}

func (t *tcpPacket) marshal() []byte {
	n := hdrLen + len(t.data)
	p := make([]byte, n)
	p[0] = 0x45
	binary.BigEndian.PutUint16(p[ipTotLen:], uint16(n))
	binary.BigEndian.PutUint16(p[ipID:], t.id)
	p[ipTTL] = t.ttl
	p[ipProto] = protoTCP
	copy(p[ipSrc:], t.src[:])
	copy(p[ipDst:], t.dst[:])
	binary.BigEndian.PutUint16(p[tcpSport:], t.sport)
	binary.BigEndian.PutUint16(p[tcpDport:], t.dport)
	binary.BigEndian.PutUint32(p[tcpSeq:], t.seq)
	binary.BigEndian.PutUint32(p[tcpAck:], t.ack)
	p[tcpOffFl] = 5 << 4
	p[tcpFlags] = t.flags
	binary.BigEndian.PutUint16(p[tcpWin:], t.win)
	binary.BigEndian.PutUint16(p[tcpUrg:], t.urg)
	copy(p[hdrLen:], t.data)
	fixIPChecksum(p)
	// A fake but deterministic TCP checksum (carried verbatim).
	binary.BigEndian.PutUint16(p[tcpCksum:], uint16(t.seq)^t.win^uint16(len(t.data)))
	fixIPChecksum(p)
	return p
}

func defaultConn() tcpPacket {
	return tcpPacket{
		src: [4]byte{10, 0, 0, 1}, dst: [4]byte{10, 0, 0, 2},
		sport: 1024, dport: 80,
		seq: 1000, ack: 5000, win: 4096,
		flags: flACK, id: 1, ttl: 64,
	}
}

// pipe couples compressor and decompressor.
type pipe struct {
	c *Compressor
	d *Decompressor
}

func newPipe() *pipe {
	return &pipe{c: NewCompressor(), d: NewDecompressor()}
}

// send compresses then decompresses, asserting byte-exact recovery.
func (pp *pipe) send(t *testing.T, pkt []byte) Type {
	t.Helper()
	typ, wire := pp.c.Compress(pkt)
	got, err := pp.d.Decompress(typ, wire)
	if err != nil {
		t.Fatalf("decompress (%d): %v", typ, err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatalf("reconstruction mismatch (type %d):\n got % x\nwant % x", typ, got, pkt)
	}
	return typ
}

func TestNonTCPPassesThrough(t *testing.T) {
	pp := newPipe()
	c0 := defaultConn()
	udp := c0.marshal()
	udp[ipProto] = 17
	fixIPChecksum(udp)
	if typ := pp.send(t, udp); typ != typeIP {
		t.Errorf("type = %d", typ)
	}
}

func TestSynSentAsIP(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pkt.flags = flSYN
	if typ := pp.send(t, pkt.marshal()); typ != typeIP {
		t.Errorf("SYN type = %d", typ)
	}
}

func TestFirstPacketUncompressedThenCompressed(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Fatalf("first type = %d", typ)
	}
	pkt.id++
	pkt.ack += 100
	if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
		t.Fatalf("second type = %d", typ)
	}
}

func TestUnidirectionalDataUsesSpecialD(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pkt.data = bytes.Repeat([]byte{0xAA}, 256)
	pp.send(t, pkt.marshal()) // installs state
	var sizes []int
	for i := 0; i < 10; i++ {
		pkt.id++
		pkt.seq += 256
		typ, wire := pp.c.Compress(pkt.marshal())
		if typ != TypeCompressed {
			t.Fatalf("packet %d type %d", i, typ)
		}
		got, err := pp.d.Decompress(typ, wire)
		if err != nil || !bytes.Equal(got, pkt.marshal()) {
			t.Fatalf("packet %d: %v", i, err)
		}
		sizes = append(sizes, len(wire)-len(pkt.data))
	}
	// Steady unidirectional transfer: 3-octet headers (change byte +
	// checksum), the RFC 1144 headline.
	for i, n := range sizes {
		if n != 3 {
			t.Errorf("packet %d header = %d octets, want 3", i, n)
		}
	}
}

func TestEchoedInteractiveUsesSpecialI(t *testing.T) {
	pp := newPipe()
	// The echo side: each packet carries d octets and acks d octets.
	pkt := defaultConn()
	pkt.data = []byte("x")
	pp.send(t, pkt.marshal())
	for i := 0; i < 5; i++ {
		pkt.id++
		pkt.seq++
		pkt.ack++
		typ, wire := pp.c.Compress(pkt.marshal())
		if typ != TypeCompressed {
			t.Fatalf("echo %d type %d", i, typ)
		}
		if len(wire)-len(pkt.data) != 3 {
			t.Errorf("echo %d header = %d, want 3 (SPECIAL_I)", i, len(wire)-len(pkt.data))
		}
		got, err := pp.d.Decompress(typ, wire)
		if err != nil || !bytes.Equal(got, pkt.marshal()) {
			t.Fatalf("echo %d mismatch: %v", i, err)
		}
	}
}

func TestNaturalSpecialCollisionRefreshes(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pkt.data = []byte{1, 2, 3}
	pp.send(t, pkt.marshal())
	// Next packet naturally changes S, W and U — the SPECIAL_I pattern —
	// so the compressor must fall back to uncompressed.
	pkt.id++
	pkt.seq += 9
	pkt.win += 7
	pkt.flags |= flURG
	pkt.urg = 1
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Errorf("collision type = %d, want uncompressed", typ)
	}
}

func TestWindowAndAckDeltas(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pp.send(t, pkt.marshal())
	// Pure ack advance with window change (the receiver side of a
	// transfer).
	for i := 0; i < 10; i++ {
		pkt.id++
		pkt.ack += 1460
		pkt.win -= 100
		if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
			t.Fatalf("ack %d type %d", i, typ)
		}
	}
}

func TestLargeDeltaForcesRefresh(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pp.send(t, pkt.marshal())
	pkt.id++
	pkt.seq += 1 << 20 // beyond 16 bits
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Errorf("type = %d", typ)
	}
}

func TestRetransmissionForcesRefresh(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pkt.data = []byte{1}
	pp.send(t, pkt.marshal())
	// Same seq with data again (retransmission): refresh.
	pkt.id++
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Errorf("type = %d", typ)
	}
}

func TestTwoConnectionsShareTheLink(t *testing.T) {
	pp := newPipe()
	a := defaultConn()
	b := defaultConn()
	b.dport = 443
	b.seq = 99
	pp.send(t, a.marshal())
	pp.send(t, b.marshal())
	// Alternating traffic: each switch costs a C byte but stays
	// compressed.
	for i := 0; i < 6; i++ {
		a.id++
		a.ack += 10
		if typ := pp.send(t, a.marshal()); typ != TypeCompressed {
			t.Fatalf("a[%d] type %d", i, typ)
		}
		b.id++
		b.ack += 10
		if typ := pp.send(t, b.marshal()); typ != TypeCompressed {
			t.Fatalf("b[%d] type %d", i, typ)
		}
	}
}

func TestSlotRecycling(t *testing.T) {
	pp := newPipe()
	// More connections than slots: all must still round trip.
	for i := 0; i < 40; i++ {
		pkt := defaultConn()
		pkt.sport = uint16(2000 + i)
		pp.send(t, pkt.marshal())
	}
	if pp.c.OutUncompressed != 40 {
		t.Errorf("uncompressed = %d", pp.c.OutUncompressed)
	}
}

func TestTossRecoveryAfterLoss(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pkt.data = []byte{7}
	pp.send(t, pkt.marshal())

	// Lose a compressed packet: compressor state advances, the
	// decompressor's does not.
	pkt.id++
	pkt.seq++
	pp.c.Compress(pkt.marshal()) // never delivered

	// The next compressed packet decodes to a WRONG stream — in real
	// deployments the TCP checksum catches it; our model detects the
	// mismatch by comparing and then simulates the toss.
	pkt.id++
	pkt.seq++
	typ, wire := pp.c.Compress(pkt.marshal())
	if typ != TypeCompressed {
		t.Fatalf("type %d", typ)
	}
	got, err := pp.d.Decompress(typ, wire)
	if err == nil && bytes.Equal(got, pkt.marshal()) {
		t.Fatal("impossible: reconstruction cannot match after loss")
	}
	// Host TCP detects the damage; the driver sets toss. Subsequent
	// compressed packets are discarded...
	pp.d.Toss()
	pkt.id++
	pkt.seq++
	typ, wire = pp.c.Compress(pkt.marshal())
	if _, err := pp.d.Decompress(typ, wire); err != errTossed {
		t.Fatalf("expected toss, got %v", err)
	}
	// ...until the compressor refreshes (e.g. driven by a TCP
	// retransmission taking the uncompressed path).
	pkt.id++
	pkt.seq += 1 << 20 // retransmit-scale jump forces refresh
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Fatalf("refresh type %d", typ)
	}
	pkt.id++
	pkt.ack += 5
	if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
		t.Fatalf("post-recovery type %d", typ)
	}
}

func TestRandomizedStreamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pp := newPipe()
	conns := make([]tcpPacket, 4)
	for i := range conns {
		conns[i] = defaultConn()
		conns[i].sport = uint16(3000 + i)
		conns[i].id = uint16(rng.Intn(1 << 16))
	}
	for step := 0; step < 500; step++ {
		c := &conns[rng.Intn(len(conns))]
		c.id += uint16(1 + rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			c.seq += uint32(rng.Intn(2000))
		case 1:
			c.ack += uint32(rng.Intn(2000))
		case 2:
			c.win = uint16(rng.Intn(1 << 16))
		case 3:
			c.seq += uint32(rng.Intn(1 << 20)) // occasionally huge
		case 4:
			c.flags ^= flPSH
		}
		n := rng.Intn(64)
		c.data = make([]byte, n)
		rng.Read(c.data)
		pp.send(t, c.marshal())
	}
	if pp.c.OutCompressed == 0 {
		t.Error("no compression achieved on random streams")
	}
	if pp.c.SavedOctets == 0 {
		t.Error("no octets saved")
	}
}

func TestCompressionRatioHeadline(t *testing.T) {
	// RFC 1144's headline: 40-octet headers → 3-4 octets on a bulk
	// transfer, >90% header reduction.
	pp := newPipe()
	pkt := defaultConn()
	pkt.data = bytes.Repeat([]byte{0x55}, 512)
	pp.send(t, pkt.marshal())
	var hdrOctets int
	const n = 100
	for i := 0; i < n; i++ {
		pkt.id++
		pkt.seq += 512
		typ, wire := pp.c.Compress(pkt.marshal())
		if typ != TypeCompressed {
			t.Fatalf("packet %d type %d", i, typ)
		}
		hdrOctets += len(wire) - len(pkt.data)
		if _, err := pp.d.Decompress(typ, wire); err != nil {
			t.Fatal(err)
		}
	}
	avg := float64(hdrOctets) / n
	if avg > 4 {
		t.Errorf("average compressed header = %.1f octets, want ≤ 4", avg)
	}
}

func TestCompressibleEdgeCases(t *testing.T) {
	base := defaultConn()
	ok := base.marshal()
	if !compressible(ok) {
		t.Fatal("baseline should be compressible")
	}
	// Fragmented datagram.
	frag := base.marshal()
	frag[6] = 0x20 // MF bit
	fixIPChecksum(frag)
	if compressible(frag) {
		t.Error("fragment accepted")
	}
	// TCP options present.
	opts := base.marshal()
	opts[tcpOffFl] = 6 << 4
	if compressible(opts) {
		t.Error("options accepted")
	}
	// Total-length mismatch.
	short := base.marshal()
	short = short[:len(short)] // same slice; lie about total length
	binary.BigEndian.PutUint16(short[ipTotLen:], uint16(len(short)+4))
	if compressible(short) {
		t.Error("length mismatch accepted")
	}
	// IP options (IHL != 5).
	ihl := base.marshal()
	ihl[0] = 0x46
	if compressible(ihl) {
		t.Error("IP options accepted")
	}
	if compressible([]byte{0x45}) {
		t.Error("truncated accepted")
	}
}

func TestDecompressorErrorPaths(t *testing.T) {
	d := NewDecompressor()
	// Truncated uncompressed packet.
	if _, err := d.Decompress(TypeUncompressed, make([]byte, 10)); err == nil {
		t.Error("short uncompressed accepted")
	}
	// Slot out of range.
	bad := defaultConn()
	pb := bad.marshal()
	pb[ipProto] = 200 // beyond table
	if _, err := d.Decompress(TypeUncompressed, pb); err != errBadSlot {
		t.Errorf("slot 200: %v", err)
	}
	// Compressed too short.
	d2 := NewDecompressor()
	if _, err := d2.Decompress(TypeCompressed, []byte{0}); err == nil {
		t.Error("short compressed accepted")
	}
	// Compressed referencing never-installed state.
	d3 := NewDecompressor()
	if _, err := d3.Decompress(TypeCompressed, []byte{newC, 3, 0, 0}); err != errBadSlot {
		t.Errorf("uninstalled slot: %v", err)
	}
	// Truncated delta fields.
	d4 := NewDecompressor()
	c0 := defaultConn()
	seed := c0.marshal()
	seed[ipProto] = 0
	if _, err := d4.Decompress(TypeUncompressed, seed); err != nil {
		t.Fatal(err)
	}
	// Change byte says newS but no delta octets follow the checksum.
	if _, err := d4.Decompress(TypeCompressed, []byte{newS, 0x12, 0x34}); err == nil {
		t.Error("truncated delta accepted")
	}
	if d4.Tossed == 0 {
		t.Error("toss not counted")
	}
}

func TestDecompressThreeByteDeltaAndUrgent(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pp.send(t, pkt.marshal())
	// A window jump of exactly 256 needs the 3-octet delta form; URG
	// adds the urgent pointer.
	pkt.id++
	pkt.win += 0x1234
	pkt.flags |= flURG
	pkt.urg = 7
	// URG flag change forces an uncompressed refresh first.
	if typ := pp.send(t, pkt.marshal()); typ != TypeUncompressed {
		t.Fatalf("flag change: type %d", typ)
	}
	// Steady URG: compressed with U bit each time.
	for i := 0; i < 3; i++ {
		pkt.id++
		pkt.urg += 300 // 3-octet delta territory
		pkt.ack += 70000 >> 4
		if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
			t.Fatalf("urgent %d: type %d", i, typ)
		}
	}
}

func TestIPIDNonDefaultDelta(t *testing.T) {
	pp := newPipe()
	pkt := defaultConn()
	pp.send(t, pkt.marshal())
	// ID jumping by 7 (shared counter host) needs the I bit.
	pkt.id += 7
	pkt.ack += 1
	if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
		t.Fatal("not compressed")
	}
	// ID going BACKWARD: 16-bit wraparound delta still encodes.
	pkt.id -= 3
	pkt.ack += 1
	if typ := pp.send(t, pkt.marshal()); typ != TypeCompressed {
		t.Fatal("backward id not compressed")
	}
}
