// IP over SDH/SONET: the paper's system context, end to end. Two PPP
// endpoints negotiate LCP and IPCP, then exchange IPv4 datagrams whose
// byte stream is carried inside STM-16 (2.488 Gb/s) SDH transport
// frames — byte-synchronous HDLC mapping, scrambling, and B1/B3 parity
// monitoring included. A burst of line noise is injected to show the
// layered error detection: SONET parity flags the frame, the PPP FCS
// rejects the damaged datagram, and everything else is delivered.
package main

import (
	"fmt"

	gigapos "repro"
	"repro/internal/netsim"
	"repro/internal/sonet"
)

// carry moves a PPP byte stream across an STM-16 line, corrupting one
// octet of the hit-th transport frame.
func carry(stream []byte, hit uint64) (out [][]byte, df *sonet.Deframer) {
	a, z := sonet.NewLinePair(sonet.STM16)
	a.Inject = func(f []byte) []byte {
		if a.Framer().FramesBuilt == hit {
			f[len(f)/2] ^= 0x20 // noise burst mid-frame
		}
		return f
	}
	a.Send(stream)
	for a.Stats().QueueDepth > 0 {
		a.Tick(0)
	}
	a.Tick(0) // one fill frame to flush
	return z.Recv(nil), z.Deframer()
}

func main() {
	a := gigapos.NewLink(gigapos.LinkConfig{
		Magic: 0xA5A5A5A5, IPAddr: [4]byte{192, 0, 2, 1},
	})
	b := gigapos.NewLink(gigapos.LinkConfig{
		Magic: 0x5A5A5A5A, IPAddr: [4]byte{192, 0, 2, 2},
	})

	// Bring the link up: LCP negotiation followed by IPCP.
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	for i := 0; i < 32 && !(a.IPReady() && b.IPReady()); i++ {
		if out := a.Output(); len(out) > 0 {
			b.Input(out)
		}
		if out := b.Output(); len(out) > 0 {
			a.Input(out)
		}
	}
	fmt.Printf("LCP opened: %v/%v, IPCP opened: %v/%v\n", a.Opened(), b.Opened(), a.IPReady(), b.IPReady())
	fmt.Printf("addresses : a=%v  b=%v\n\n", ip(a.LocalIP()), ip(b.LocalIP()))

	// Generate an IMIX workload with a little escape-density.
	gen := netsim.NewGen(7, netsim.IMIX{}, 0.05)
	datagrams := gen.Burst(72 * 1024)
	for _, d := range datagrams {
		if err := a.SendIPv4(d); err != nil {
			panic(err)
		}
	}
	fmt.Printf("sending %d IPv4 datagrams (%d octets) over STM-16 (%.2f Gb/s line)\n",
		len(datagrams), gen.Octets, sonet.STM16.LineRate()/1e9)

	// Carry the stream over SONET, corrupting transport frame 2.
	rx, df := carry(a.Output(), 2)
	b.InputBatch(rx)

	got := b.Received()
	fmt.Printf("\nSDH section   : %d frames OK, B1 parity errors: %d, B3 path errors: %d\n",
		df.FramesOK, df.B1Errors, df.B3Errors)
	fmt.Printf("PPP layer     : %d datagrams delivered, %d frames rejected by FCS\n",
		len(got), b.RxErrors)

	// Verify every delivered datagram parses as valid IPv4.
	valid := 0
	for _, d := range got {
		if _, ok := netsim.ParseIPv4(d.Payload); ok {
			valid++
		}
	}
	fmt.Printf("IP layer      : %d/%d delivered datagrams have valid headers\n", valid, len(got))
	fmt.Printf("\nthe noise burst was caught twice: by SDH B1/B3 parity and by the\nPPP 32-bit FCS; only the damaged datagrams were lost.\n")
}

func ip(a [4]byte) string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}
