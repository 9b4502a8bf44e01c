package gigapos

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// buildTCP constructs an option-less TCP/IP datagram for the VJ tests.
func buildTCP(seq, ack uint32, id uint16, data []byte) []byte {
	n := 40 + len(data)
	p := make([]byte, n)
	p[0] = 0x45
	binary.BigEndian.PutUint16(p[2:], uint16(n))
	binary.BigEndian.PutUint16(p[4:], id)
	p[8] = 64
	p[9] = 6 // TCP
	copy(p[12:], []byte{10, 0, 0, 1})
	copy(p[16:], []byte{10, 0, 0, 2})
	binary.BigEndian.PutUint16(p[20:], 1024)
	binary.BigEndian.PutUint16(p[22:], 80)
	binary.BigEndian.PutUint32(p[24:], seq)
	binary.BigEndian.PutUint32(p[28:], ack)
	p[32] = 5 << 4
	p[33] = 0x10 // ACK
	binary.BigEndian.PutUint16(p[34:], 8192)
	// IP checksum.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(p[i])<<8 | uint32(p[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	binary.BigEndian.PutUint16(p[10:], ^uint16(sum))
	copy(p[40:], data)
	return p
}

// TestVJOverLink: a steady TCP stream with VJ negotiated both ways
// travels compressed and is delivered as the IPv4 datagrams sent, byte
// for byte, on plain UI frames and in numbered mode, where the peer's
// station hands each information field to the same network-layer
// dispatch.
func TestVJOverLink(t *testing.T) {
	for _, c := range []struct {
		name     string
		reliable bool
	}{{"plain", false}, {"numbered", true}} {
		t.Run(c.name, func(t *testing.T) {
			a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}, WantVJ: true, AllowVJ: true, Reliable: c.reliable})
			b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}, WantVJ: true, AllowVJ: true, Reliable: c.reliable})
			if c.reliable {
				bringUpReliable(t, a, b)
			} else {
				bringUp(t, a, b)
			}
			if !a.VJGranted() || !b.VJGranted() {
				t.Fatal("VJ not negotiated")
			}

			// A steady TCP stream: first packet refreshes state, the rest
			// travel compressed and must reconstruct byte-exactly.
			var want [][]byte
			seq := uint32(1000)
			for i := 0; i < 10; i++ {
				pkt := buildTCP(seq, 5000, uint16(i+1), bytes.Repeat([]byte{byte(i)}, 100))
				seq += 100
				want = append(want, pkt)
				if err := a.SendIPv4(pkt); err != nil {
					t.Fatal(err)
				}
			}
			// Everything a puts on the wire until the pair is quiet (the
			// numbered-mode window opens as b acknowledges). On plain
			// frames it must be visibly smaller than the raw datagrams;
			// numbered frames escape every control octet (ACCMAll), and
			// this stream's payload octets are all control octets, so
			// there the compression shows only in the counters.
			wire := 0
			for i := 0; i < 100; i++ {
				out := a.Output()
				wire += len(out)
				b.Input(out)
				back := b.Output()
				a.Input(back)
				if len(out) == 0 && len(back) == 0 {
					break
				}
			}
			var raw int
			for _, p := range want {
				raw += len(p)
			}
			if !c.reliable && wire >= raw {
				t.Errorf("wire %d ≥ raw %d: no compression benefit", wire, raw)
			}
			got := b.Received()
			if len(got) != len(want) {
				t.Fatalf("delivered %d/%d", len(got), len(want))
			}
			for i := range got {
				if got[i].Protocol != ProtoIPv4 || !bytes.Equal(got[i].Payload, want[i]) {
					t.Fatalf("datagram %d: proto %#04x len %d, want IPv4 len %d", i, got[i].Protocol, len(got[i].Payload), len(want[i]))
				}
			}
			if a.vjTx.OutCompressed == 0 {
				t.Error("nothing was compressed")
			}
		})
	}
}

func TestVJDeclinedFallsBackToPlainIP(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}, WantVJ: true, AllowVJ: true})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}}) // no VJ
	bringUp(t, a, b)
	if a.VJGranted() {
		t.Fatal("VJ granted by a peer that rejected it")
	}
	pkt := buildTCP(1, 2, 3, []byte{9})
	if err := a.SendIPv4(pkt); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 50)
	got := b.Received()
	if len(got) != 1 || got[0].Protocol != ProtoIPv4 || !bytes.Equal(got[0].Payload, pkt) {
		t.Fatalf("got %+v", got)
	}
}

func TestVJNonTCPUnaffected(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}, WantVJ: true, AllowVJ: true})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}, WantVJ: true, AllowVJ: true})
	bringUp(t, a, b)
	udp := buildTCP(1, 2, 3, []byte{1, 2, 3})
	udp[9] = 17 // UDP: not compressible
	if err := a.SendIPv4(udp); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 50)
	got := b.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, udp) {
		t.Fatalf("got %+v", got)
	}
}
