// Multilink bundle: RFC 1990 aggregation of several P5 channels. Four
// 8-bit P5 framers (625 Mb/s each) carry fragments of the same datagram
// stream in parallel; the far end reassembles in order — the classic
// route to rates above a single channel before a faster interface (the
// paper's 32-bit P5) exists. One member link is then cut mid-stream to
// show loss detection discarding only the packets it touched.
package main

import (
	"bytes"
	"fmt"

	gigapos "repro"
	"repro/internal/mp"
	"repro/internal/netsim"
)

func main() {
	const nLinks = 4

	// Each member link is a full cycle-accurate 8-bit P5 loopback.
	systems := make([]*gigapos.System, nLinks)
	for i := range systems {
		systems[i] = gigapos.NewSystem(gigapos.Width8)
	}

	rx := &mp.Receiver{Format: mp.LongSeq, NLinks: nLinks}
	var delivered [][]byte
	rx.Deliver = func(p []byte) { delivered = append(delivered, p) }

	cut := -1 // link to damage, -1 = none
	tx := &mp.Sender{Format: mp.LongSeq, MaxFrag: 128}
	for i := 0; i < nLinks; i++ {
		i := i
		tx.Links = append(tx.Links, func(frag []byte) {
			if i == cut {
				return // the fibre is dark
			}
			// Fragment rides a P5 frame across link i.
			systems[i].Send(gigapos.TxJob{Protocol: mp.Proto, Payload: frag})
			systems[i].RunUntilIdle(1_000_000)
			for _, f := range systems[i].Received() {
				if f.Err == nil {
					// The reassembler keeps fragments across many
					// drains; a received payload lives only until the
					// second-following one, so it gets a copy.
					rx.Receive(i, bytes.Clone(f.Frame.Payload))
				}
			}
		})
	}

	gen := netsim.NewGen(4, netsim.Fixed(700), 0.02)
	fmt.Printf("bundle: %d × 8-bit P5 links (625 Mb/s each = %.1f Gb/s aggregate)\n\n",
		nLinks, float64(nLinks)*0.625)

	sent := 0
	for i := 0; i < 30; i++ {
		tx.Send(gen.Next())
		sent++
	}
	fmt.Printf("phase 1: %d datagrams sent, %d reassembled in order, %d lost\n",
		sent, rx.Delivered, rx.Lost)

	// Cut link 2 mid-stream: fragments routed to it vanish.
	cut = 2
	for i := 0; i < 10; i++ {
		tx.Send(gen.Next())
		sent++
	}
	cut = -1
	// Healthy traffic lets the receiver prove the gaps and move on.
	for i := 0; i < 30; i++ {
		tx.Send(gen.Next())
		sent++
	}
	fmt.Printf("phase 2: link 2 cut for 10 datagrams → delivered %d/%d total, %d loss events detected\n",
		rx.Delivered, sent, rx.Lost)
	fmt.Printf("\nper-link P5 frame counts: ")
	for i, s := range systems {
		fmt.Printf("link%d=%d ", i, s.OAM.Read(0x40))
	}
	fmt.Println()
}
