package gigapos

import (
	"path/filepath"
	"testing"

	"repro/internal/flight"
	"repro/internal/ppp"
)

// TestFlightCountsEachFrameOnce: the latency pipe tags a datagram at its
// one departure site (Send) and matches it at its one arrival site
// (deliver), so after the loss horizon a clean run reads tracked equal
// to delivered and nothing lost — in numbered mode, through Send for
// every data protocol, and on an end armed without a peer, which has no
// pipe at all.
func TestFlightCountsEachFrameOnce(t *testing.T) {
	ipv4 := func(a *Link, i int) error { return a.SendIPv4([]byte{0x45, byte(i), 0x7E, 0x7D}) }
	for _, c := range []struct {
		name     string
		reliable bool
		joined   bool
		send     []func(*Link, int) error
	}{
		{"numbered mode", true, true, []func(*Link, int) error{ipv4}},
		{"Send IPv6 beside SendIPv4", false, true, []func(*Link, int) error{
			ipv4,
			func(a *Link, i int) error { return a.Send(ppp.ProtoIPv6, []byte{0x60, byte(i), 0, 0}) },
		}},
		{"half-armed pair", false, false, []func(*Link, int) error{ipv4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := NewLink(LinkConfig{Magic: 1, Reliable: c.reliable, IPAddr: [4]byte{10, 0, 0, 1}})
			z := NewLink(LinkConfig{Magic: 2, Reliable: c.reliable, IPAddr: [4]byte{10, 0, 0, 2}})
			if c.reliable {
				bringUpReliable(t, a, z)
			} else {
				bringUp(t, a, z)
			}
			dir := t.TempDir()
			o := Observation{Flight: &flight.Config{Dir: dir}}
			if c.joined {
				new(Watch).ObservePair(o, "p", a, z)
			} else {
				new(Watch).ObservePair(o, "p", a, nil)
			}
			for _, send := range c.send {
				for i := 0; i < 10; i++ {
					if err := send(a, i); err != nil {
						t.Fatal(err)
					}
				}
			}
			delivered := 0
			for now := int64(1); now <= 1100; now++ { // past the 1024-tick horizon
				a.Advance(now)
				z.Advance(now)
				z.Input(a.Output())
				a.Input(z.Output())
				delivered += len(z.Received())
			}
			if want := 10 * len(c.send); delivered != want {
				t.Fatalf("delivered %d of %d", delivered, want)
			}
			fr := a.Flight()
			want := uint64(delivered)
			if !c.joined {
				want = 0
			}
			if fr.Tracked() != want || fr.Lost() != 0 {
				t.Errorf("tracked %d lost %d after delivering %d, want %d and 0", fr.Tracked(), fr.Lost(), delivered, want)
			}
			// An unjoined end keeps its black box and its captures.
			cp := fr.Trigger("oam")
			if files, _ := filepath.Glob(filepath.Join(dir, "p_a-*-oam.p5fr")); len(files) != 1 || cp.Path != files[0] {
				t.Errorf("capture files %v, capture path %q: want the one oam capture", files, cp.Path)
			}
		})
	}
}
