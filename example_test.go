package gigapos_test

import (
	"fmt"

	gigapos "repro"
)

// The minimal hardware-model tour: queue a datagram, clock the system,
// read the result.
func ExampleNewSystem() {
	sys := gigapos.NewSystem(gigapos.Width32)
	sys.Send(gigapos.TxJob{
		Protocol: gigapos.ProtoIPv4,
		Payload:  []byte{0x31, 0x33, 0x7E, 0x96}, // the paper's stuffing example
	})
	sys.RunUntilIdle(100000)
	for _, f := range sys.Received() {
		fmt.Println(f.Frame)
	}
	// Output:
	// PPP{addr=0xff ctrl=0x03 proto=0x0021 len=4}
}

// Two software endpoints negotiate LCP and IPCP, then carry IP.
func ExampleNewLink() {
	a := gigapos.NewLink(gigapos.LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := gigapos.NewLink(gigapos.LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	for i := 0; i < 8; i++ { // shuttle negotiation traffic
		b.Input(a.Output())
		a.Input(b.Output())
	}
	a.SendIPv4([]byte("datagram"))
	b.Input(a.Output())
	for _, d := range b.Received() {
		fmt.Printf("%#04x %q\n", d.Protocol, d.Payload)
	}
	// Output:
	// 0x0021 "datagram"
}
