package sonet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// TestLineAddsNothingToTheWire carries one seeded octet stream through
// one fault script twice — over a Line pair, and over a bare Framer →
// Injector.Apply → Deframer — and requires the same payload octets,
// fill count, frame and parity counters, APS log and defect event log:
// the adapter is plumbing, not a second section. Beside that, the
// transport view (Stats, Up) must add up against the section's own
// counters.
func TestLineAddsNothingToTheWire(t *testing.T) {
	for _, level := range []Level{STM1, STM16} {
		const frames = 160
		fb, pb := level.FrameBytes(), level.PayloadBytes()
		// What each frame time queues: dry ticks, trickles, and bursts
		// that back the queue up across several frames.
		rng := rand.New(rand.NewSource(int64(level)))
		bursts := make([][]byte, frames)
		for i := range bursts {
			n := rng.Intn(pb)
			switch i % 7 {
			case 0:
				n = 0
			case 3:
				n += 2 * pb
			}
			bursts[i] = make([]byte, n)
			rng.Read(bursts[i])
		}
		var script fault.Script
		script.Insert(int64(9*fb+100), 0x55)
		script.Corrupt(int64(20*fb+300), 64, 0x0F)
		script.LOS(int64(40*fb), 30*fb)
		script.Delete(int64(95*fb+7), 2)
		script.Duplicate(int64(120*fb+17), 16)
		retune := func(fr *Framer, i int) {
			if i%5 == 3 {
				fr.K1, fr.K2 = byte(i), byte(i>>1)
			}
		}

		// The bare section.
		var q []byte
		fr := NewFramer(level, nil)
		fr.Fill = func(dst []byte, _ int) int {
			n := copy(dst, q)
			q = q[n:]
			return n
		}
		df := NewDeframer(level, nil)
		want := &rxLog{}
		want.hook(df)
		inj := fault.NewInjector(script)
		for i, b := range bursts {
			q = append(q, b...)
			retune(fr, i)
			df.Feed(inj.Apply(fr.NextFrame()))
		}
		want.finish(df)
		want.FrameAt = nil // Recv hands out payload, not frame boundaries

		// The same through the seam.
		a, z := NewLinePair(level)
		got := &rxLog{}
		z.Deframer().OnAPS = func(k1, k2 byte) { got.APS = append(got.APS, [2]byte{k1, k2}) }
		got.watch(z.Deframer().Defects)
		linj := fault.NewInjector(script)
		a.Inject = linj.Apply
		var spans [][]byte
		var queued, downTicks int
		for i, b := range bursts {
			if err := a.Send(b); err != nil {
				t.Fatal(err)
			}
			queued += len(b)
			retune(a.Framer(), i)
			a.Tick(int64(i))
			spans = z.Recv(spans[:0])
			for _, s := range spans {
				got.Out = append(got.Out, s...)
			}
			if !z.Up() {
				downTicks++
			}
		}
		got.finish(z.Deframer())

		if d := got.diff(want); d != "" {
			t.Errorf("%v: line vs bare section: %s", level, d)
		}
		if af := a.Framer(); af.FillOctets != fr.FillOctets || af.FramesBuilt != fr.FramesBuilt {
			t.Errorf("%v: framer fill/built %d/%d, bare %d/%d", level, af.FillOctets, af.FramesBuilt, fr.FillOctets, fr.FramesBuilt)
		}
		if !reflect.DeepEqual(linj.Stats, inj.Stats) || !linj.Done() {
			t.Errorf("%v: injector stats %+v, bare %+v", level, linj.Stats, inj.Stats)
		}

		tx, rx := a.Stats(), z.Stats()
		if tx.TxChunks != frames || int(tx.TxBytes)+tx.QueueDepth != queued || tx.QueueHighWater < 2*pb {
			t.Errorf("%v: transmit stats %+v after %d frames of %d queued octets", level, tx, frames, queued)
		}
		if rx.RxChunks != df.FramesOK+df.FramesErrored || int(rx.RxBytes) != len(want.Out) {
			t.Errorf("%v: receive stats %+v, section delivered %d frames, %d octets",
				level, rx, df.FramesOK+df.FramesErrored, len(want.Out))
		}
		// Down for about the 30 cut frame times, up again by the end, and
		// the transmit side of a dead receive line never noticed.
		if downTicks < 25 || downTicks > 60 || !z.Up() || !a.Up() {
			t.Errorf("%v: z down for %d ticks (cut was 30), up at end z=%v a=%v", level, downTicks, z.Up(), a.Up())
		}
		a.Close()
		if err := a.Send(nil); err == nil || a.Up() {
			t.Errorf("%v: closed line still accepts Send (err=%v up=%v)", level, err, a.Up())
		}
	}
}
