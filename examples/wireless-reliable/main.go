// Wireless reliable transmission: the paper notes the P5 control field
// "may be configured via the LCP to use sequence numbers and
// acknowledgements for reliable data transmission. This is of
// particular use in noisy environments such as wireless networks."
// (RFC 1663 numbered mode.)
//
// This example runs the same noisy channel twice — once in normal
// unnumbered mode, once in numbered mode — and compares delivery.
package main

import (
	"fmt"
	"math/rand"

	gigapos "repro"
)

// noisyRun sends n datagrams over a channel that corrupts a fraction of
// transmissions; returns how many arrived and the retransmit count.
func noisyRun(reliableMode bool, loss float64, n int, seed int64) (delivered int, retransmits uint64) {
	rng := rand.New(rand.NewSource(seed))
	a := gigapos.NewLink(gigapos.LinkConfig{Magic: 1, Reliable: reliableMode, IPAddr: [4]byte{10, 9, 0, 1}})
	b := gigapos.NewLink(gigapos.LinkConfig{Magic: 2, Reliable: reliableMode, IPAddr: [4]byte{10, 9, 0, 2}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()

	now := int64(0)
	shuttle := func(rounds int, lossy bool) {
		for i := 0; i < rounds; i++ {
			if out := a.Output(); len(out) > 0 {
				if lossy && rng.Float64() < loss {
					out[len(out)/2] ^= 0x10 // burst hits the frame; FCS kills it
				}
				b.Input(out)
			}
			if out := b.Output(); len(out) > 0 {
				if lossy && rng.Float64() < loss {
					out[len(out)/2] ^= 0x10
				}
				a.Input(out)
			}
			now += 2
			a.Advance(now)
			b.Advance(now)
		}
	}
	shuttle(100, false) // clean bring-up
	for i := 0; i < n; i++ {
		if err := a.SendIPv4([]byte{byte(i), 0xDE, 0xAD}); err != nil {
			panic(err)
		}
		shuttle(20, true)
	}
	shuttle(300, false) // drain retransmissions
	delivered = len(b.Received())
	_, _, retransmits, _ = a.ReliableStats()
	return delivered, retransmits
}

func main() {
	const n = 100
	const loss = 0.2

	fmt.Printf("channel: %0.f%% of transmissions hit by noise, %d datagrams\n\n", loss*100, n)

	d1, _ := noisyRun(false, loss, n, 7)
	fmt.Printf("unnumbered mode (default PPP):\n")
	fmt.Printf("  delivered %d/%d — every frame the noise touched is gone\n\n", d1, n)

	d2, retr := noisyRun(true, loss, n, 7)
	fmt.Printf("numbered mode (RFC 1663, LAPB window):\n")
	fmt.Printf("  delivered %d/%d, in order, via %d retransmissions\n", d2, n, retr)
}
