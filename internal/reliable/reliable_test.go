package reliable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestControlFieldCodec(t *testing.T) {
	for ns := uint8(0); ns < 8; ns++ {
		for nr := uint8(0); nr < 8; nr++ {
			c := iCtrl(ns, nr)
			if classify(c) != kindI || sendSeq(c) != ns || recvSeq(c) != nr {
				t.Fatalf("I frame codec ns=%d nr=%d ctrl=%#x", ns, nr, c)
			}
		}
	}
	if classify(sCtrl(ctrlRR, 3)) != kindRR || recvSeq(sCtrl(ctrlRR, 3)) != 3 {
		t.Error("RR codec")
	}
	if classify(sCtrl(ctrlREJ, 5)) != kindREJ {
		t.Error("REJ codec")
	}
	if classify(sCtrl(ctrlRNR, 1)) != kindRNR {
		t.Error("RNR codec")
	}
	for _, u := range []byte{ctrlSABM, ctrlUA, ctrlDISC, ctrlDM} {
		if classify(u) != kindU {
			t.Errorf("U codec %#x", u)
		}
	}
}

func TestSeqInRange(t *testing.T) {
	if !seqInRange(0, 0, 1) || seqInRange(0, 1, 1) {
		t.Error("basic range")
	}
	// Wraparound: window [6, 2) contains 6,7,0,1.
	for _, x := range []uint8{6, 7, 0, 1} {
		if !seqInRange(6, x, 2) {
			t.Errorf("%d should be in [6,2)", x)
		}
	}
	for _, x := range []uint8{2, 3, 5} {
		if seqInRange(6, x, 2) {
			t.Errorf("%d should not be in [6,2)", x)
		}
	}
}

// wire connects two stations with optional loss.
type wire struct {
	a, b   *Station
	toA    []Frame
	toB    []Frame
	drop   func(f Frame) bool
	nmoved int
}

func newWire() *wire {
	w := &wire{}
	w.a = &Station{Out: func(f Frame) { w.toB = append(w.toB, cp(f)) }}
	w.b = &Station{Out: func(f Frame) { w.toA = append(w.toA, cp(f)) }}
	return w
}

func cp(f Frame) Frame {
	return Frame{Ctrl: f.Ctrl, Payload: append([]byte(nil), f.Payload...)}
}

func (w *wire) step() bool {
	moved := false
	if len(w.toB) > 0 {
		f := w.toB[0]
		w.toB = w.toB[1:]
		if w.drop == nil || !w.drop(f) {
			w.b.Receive(f)
		}
		moved = true
	}
	if len(w.toA) > 0 {
		f := w.toA[0]
		w.toA = w.toA[1:]
		if w.drop == nil || !w.drop(f) {
			w.a.Receive(f)
		}
		moved = true
	}
	if moved {
		w.nmoved++
	}
	return moved
}

func (w *wire) run(max int) {
	for i := 0; i < max && w.step(); i++ {
	}
}

func TestConnectHandshake(t *testing.T) {
	w := newWire()
	w.a.Connect()
	w.run(10)
	if !w.a.Connected() || !w.b.Connected() {
		t.Fatalf("connect failed: %v/%v", w.a.Connected(), w.b.Connected())
	}
}

func TestSendBeforeConnect(t *testing.T) {
	w := newWire()
	if err := w.a.Send([]byte{1}); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
}

func TestInOrderDelivery(t *testing.T) {
	w := newWire()
	var got [][]byte
	w.b.Deliver = func(p []byte) { got = append(got, p) }
	w.a.Connect()
	w.run(10)
	for i := 0; i < 20; i++ {
		if err := w.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		w.run(100)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	w := newWire()
	w.a.Connect()
	w.run(10)
	// Queue 10 without letting the peer answer.
	for i := 0; i < 10; i++ {
		if err := w.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.a.sent) != window {
		t.Errorf("in flight = %d, want window %d", len(w.a.sent), window)
	}
	if len(w.a.pending) != 10-window {
		t.Errorf("queued = %d, want %d", len(w.a.pending), 10-window)
	}
	// Drain: acknowledgements open the window.
	var got int
	w.b.Deliver = func([]byte) { got++ }
	w.run(1000)
	if got != 10 {
		t.Errorf("delivered %d, want 10", got)
	}
	if len(w.a.sent) != 0 || len(w.a.pending) != 0 {
		t.Error("window did not drain")
	}
}

func TestREJTriggersGoBackN(t *testing.T) {
	w := newWire()
	var got [][]byte
	w.b.Deliver = func(p []byte) { got = append(got, p) }
	w.a.Connect()
	w.run(10)
	// Drop exactly the second I frame on its first transmission.
	iSeen := 0
	w.drop = func(f Frame) bool {
		if classify(f.Ctrl) == kindI {
			iSeen++
			return iSeen == 2
		}
		return false
	}
	for i := 0; i < 5; i++ {
		w.a.Send([]byte{byte(i)})
	}
	w.run(1000)
	if w.a.RxREJ == 0 {
		t.Error("receiver never sent REJ")
	}
	if w.a.Retransmits == 0 {
		t.Error("sender never retransmitted")
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d: % x", i, got)
		}
	}
}

func TestTimeoutRetransmission(t *testing.T) {
	w := newWire()
	var got int
	w.b.Deliver = func([]byte) { got++ }
	w.a.Connect()
	w.run(10)
	// Black-hole every frame once: first transmission always lost.
	lost := map[byte]bool{}
	w.drop = func(f Frame) bool {
		if classify(f.Ctrl) == kindI && !lost[f.Ctrl] {
			lost[f.Ctrl] = true
			return true
		}
		return false
	}
	w.a.Send([]byte{42})
	w.run(100)
	if got != 0 {
		t.Fatal("frame should have been lost")
	}
	// T1 fires; retransmission succeeds.
	w.a.Advance(10)
	w.run(100)
	if got != 1 {
		t.Fatalf("delivered %d after timeout, want 1", got)
	}
	if w.a.Retransmits == 0 {
		t.Error("no retransmission counted")
	}
}

func TestLossyLinkPropertyDelivery(t *testing.T) {
	// Under 20% random loss with periodic timer service, every payload
	// arrives exactly once, in order — the RFC 1663 promise for noisy
	// wireless links.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWire()
		var got [][]byte
		w.b.Deliver = func(p []byte) { got = append(got, p) }
		w.a.Connect()
		w.run(10)
		w.drop = func(Frame) bool { return rng.Float64() < 0.2 }

		const n = 50
		sentAll := 0
		now := int64(0)
		for round := 0; round < 400 && len(got) < n; round++ {
			if sentAll < n {
				w.a.Send([]byte{byte(sentAll)})
				sentAll++
			}
			w.run(50)
			now += 4
			w.a.Advance(now)
			w.b.Advance(now)
		}
		if len(got) != n {
			t.Fatalf("seed %d: delivered %d/%d", seed, len(got), n)
		}
		for i, p := range got {
			if p[0] != byte(i) {
				t.Fatalf("seed %d: out of order at %d", seed, i)
			}
		}
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	w := newWire()
	var gotA, gotB [][]byte
	w.a.Deliver = func(p []byte) { gotA = append(gotA, p) }
	w.b.Deliver = func(p []byte) { gotB = append(gotB, p) }
	w.a.Connect()
	w.run(10)
	for i := 0; i < 10; i++ {
		w.a.Send([]byte(fmt.Sprintf("a%d", i)))
		w.b.Send([]byte(fmt.Sprintf("b%d", i)))
		w.run(100)
	}
	if len(gotA) != 10 || len(gotB) != 10 {
		t.Fatalf("a got %d, b got %d", len(gotA), len(gotB))
	}
	if !bytes.Equal(gotB[7], []byte("a7")) || !bytes.Equal(gotA[7], []byte("b7")) {
		t.Error("payload mismatch")
	}
}

func TestDisconnect(t *testing.T) {
	w := newWire()
	w.a.Connect()
	w.run(10)
	w.a.Disconnect()
	w.run(10)
	if w.a.Connected() || w.b.Connected() {
		t.Error("disconnect did not propagate")
	}
	if err := w.b.Send([]byte{1}); err != errNotConnected {
		t.Error("send after disconnect must fail")
	}
}

func TestSABMRetriesAndGivesUp(t *testing.T) {
	var sent int
	s := &Station{Out: func(Frame) { sent++ }}
	s.Connect()
	now := int64(0)
	for i := 0; i < 4000; i++ {
		now += 5
		s.Advance(now)
	}
	if sent != maxRetries+1 { // initial + N2 retries
		t.Errorf("SABM transmissions = %d, want %d", sent, maxRetries+1)
	}
}

func TestN2ExhaustionResetsLink(t *testing.T) {
	w := newWire()
	w.a.Connect()
	w.run(10)
	// Peer goes silent: drop everything toward b.
	w.drop = func(Frame) bool { return true }
	w.a.Send([]byte{1})
	now := int64(0)
	for i := 0; i < 4000 && w.a.Connected(); i++ {
		now += 5
		w.a.Advance(now)
		w.run(10)
	}
	if w.a.Connected() {
		t.Error("link never reset after N2 exhaustion")
	}
}

func TestSequenceWraparound(t *testing.T) {
	// More than 8 frames forces V(S)/V(R) wraparound.
	w := newWire()
	var got int
	w.b.Deliver = func([]byte) { got++ }
	w.a.Connect()
	w.run(10)
	for i := 0; i < 30; i++ {
		w.a.Send([]byte{byte(i)})
		w.run(100)
	}
	if got != 30 {
		t.Fatalf("delivered %d, want 30", got)
	}
	if w.a.vs != 30%8 {
		t.Errorf("V(S) = %d, want %d", w.a.vs, 30%8)
	}
}

// TestDiscStopsT1: a DISC from the peer ends the link, so T1 must not
// fire afterwards and re-send a SABM that reconnects what the peer
// just tore down.
func TestDiscStopsT1(t *testing.T) {
	w := newWire()
	w.a.Connect()
	w.run(10)
	var sent []byte
	w.a.Out = func(f Frame) { sent = append(sent, f.Ctrl) }
	if err := w.a.Send([]byte{1}); err != nil { // outstanding: T1 armed
		t.Fatal(err)
	}
	w.a.Receive(Frame{Ctrl: ctrlDISC})
	sent = sent[:0]
	w.a.Advance(100)
	if len(sent) != 0 {
		t.Fatalf("after DISC, T1 sent % x", sent)
	}
}
