package gigapos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// delayedPair is TestRestartTimerMeasuresLine's harness: a Link pair
// over two channel.Lines of one-way delay d. Each tick both ends
// Advance, both transmit into their line, then both receive what is
// due, so every hop costs d + 1 ticks. A cut line carries nothing new.
type delayedPair struct {
	a, z   *Link
	ab, za *channel.Line
	now    int64 // the last tick run; bring-up starts at tick 0
	cut    bool
}

func newDelayedPair(delay int64, cfg LinkConfig) *delayedPair {
	cfg.Magic, cfg.IPAddr = 0xA0000001, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0xA0000002, [4]byte{10, 0, 0, 2}
	z := NewLink(cfg)
	for _, l := range []*Link{a, z} {
		l.Open()
		l.Up()
	}
	return &delayedPair{a: a, z: z, ab: &channel.Line{Delay: delay}, za: &channel.Line{Delay: delay}, now: -1}
}

func (p *delayedPair) step() {
	p.now++
	p.a.Advance(p.now)
	p.z.Advance(p.now)
	if out := p.a.Output(); len(out) > 0 && !p.cut {
		p.ab.Push(p.now, bytes.Clone(out))
	}
	if out := p.z.Output(); len(out) > 0 && !p.cut {
		p.za.Push(p.now, bytes.Clone(out))
	}
	for _, c := range p.ab.Pop(p.now, nil) {
		p.z.Input(c)
	}
	for _, c := range p.za.Pop(p.now, nil) {
		p.a.Input(c)
	}
}

// until steps until ready holds or 20 000 ticks pass, and returns the
// tick it held at.
func (p *delayedPair) until(t *testing.T, what string, ready func() bool) int64 {
	t.Helper()
	for deadline := p.now + 20000; p.now < deadline; {
		p.step()
		if ready() {
			return p.now
		}
	}
	t.Fatalf("%s: not reached in 20000 ticks", what)
	return 0
}

// TestNumberedModeMeasuresLine is TestRestartTimerMeasuresLine's
// sibling for RFC 1663 numbered mode, with no timer set: T1 starts
// from the round trip LCP has measured and times I frames itself, so
// on a clean line of any delay 200 datagrams arrive in order with no
// frame re-sent, no REJ and no reset on either end. On a zero-delay
// line bring-up and every count are what the fixed 3-tick T1 gave.
func TestNumberedModeMeasuresLine(t *testing.T) {
	for _, delay := range []int64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128} {
		t.Run(fmt.Sprintf("delay=%d", delay), func(t *testing.T) {
			p := newDelayedPair(delay, LinkConfig{Reliable: true})
			a, z := p.a, p.z
			up := p.until(t, "bring-up", func() bool {
				return a.IPReady() && z.IPReady() && stationUp(a) && stationUp(z)
			})
			const n = 200
			for i := 0; i < n; i++ {
				if err := a.SendIPv4([]byte{0x45, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			var got []byte
			p.until(t, "delivery", func() bool {
				for _, d := range z.Received() {
					got = append(got, d.Payload[1])
				}
				return len(got) == n
			})
			for i := int64(0); i < 4*delay+8; i++ { // the last acks land
				p.step()
			}
			for i, b := range got {
				if b != byte(i) {
					t.Fatalf("datagram %d arrived as %d", i, b)
				}
			}
			sa, sz := a.station, z.station
			t.Logf("ready at tick %d; T1 %d ticks; TxI %d, retransmits %d/%d, REJ received %d/%d, connected %v/%v",
				up, a.lcpA.Line.Period(0), sa.TxI, sa.Retransmits, sz.Retransmits, sa.RxREJ, sz.RxREJ, sa.Connected(), sz.Connected())
			if sa.Retransmits+sz.Retransmits+sa.RxREJ+sz.RxREJ != 0 || !sa.Connected() || !sz.Connected() {
				t.Errorf("clean line: retransmits %d/%d, REJ received %d/%d, connected %v/%v; want 0 and no reset",
					sa.Retransmits, sz.Retransmits, sa.RxREJ, sz.RxREJ, sa.Connected(), sz.Connected())
			}
			if delay == 0 && (up != 3 || sa.TxI != n || sz.TxI != 0 || sz.RxI != n) {
				t.Errorf("zero-delay line: ready at tick %d, TxI %d/%d, RxI %d; want 3, %d/0, %d",
					up, sa.TxI, sz.TxI, sz.RxI, n, n)
			}
		})
	}
}

// TestEchoMeasuresLine holds LCP echo supervision (EchoPeriod 8,
// echoMisses 3) over every line delay: requests leave every
// max(EchoPeriod, RTO) and any frame received since the last request
// answers it, so a live peer is never declared dead however long its
// replies take, and a cut line is declared dead within
// (echoMisses + 1) × max(EchoPeriod, RTO) ticks.
func TestEchoMeasuresLine(t *testing.T) {
	const period = 8
	for _, delay := range []int64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128} {
		t.Run(fmt.Sprintf("delay=%d", delay), func(t *testing.T) {
			p := newDelayedPair(delay, LinkConfig{EchoPeriod: period, Supervise: true})
			a, z := p.a, p.z
			ready := func() bool { return a.IPReady() && z.IPReady() }
			up := p.until(t, "bring-up", ready)
			for p.now < 10000 {
				p.step()
				if !ready() {
					t.Fatalf("fell out of IP-ready at tick %d (echo timeouts %d/%d)",
						p.now, a.EchoTimeouts, z.EchoTimeouts)
				}
			}
			if n := a.EchoTimeouts + z.EchoTimeouts + a.Supervisor().Restarts + z.Supervisor().Restarts; n != 0 {
				t.Fatalf("live peer: %d echo timeouts and supervisor restarts, want 0", n)
			}

			p.cut = true
			cut, rto := p.now, a.lcpA.Line.Period(0)
			bound := (echoMisses + 1) * max(period, rto)
			for a.EchoTimeouts == 0 && p.now-cut <= bound {
				p.step()
			}
			t.Logf("IP-ready from tick %d; RTO %d; cut line declared dead in %d ticks (bound %d)",
				up, rto, p.now-cut, bound)
			if a.EchoTimeouts == 0 {
				t.Fatalf("cut line not declared dead within %d ticks", bound)
			}
			if delay == 0 && p.now-cut != 26 {
				t.Errorf("zero-delay line declared dead in %d ticks, want 26", p.now-cut)
			}
		})
	}
}

// darkStart is a LineTransport that reports down and holds what it is
// sent until tick lit: a socket listener whose peer process has not
// started yet.
type darkStart struct {
	transport.LineTransport
	lit, now int64
	held     [][]byte
}

func (d *darkStart) Send(p []byte) error {
	if d.now < d.lit {
		d.held = append(d.held, bytes.Clone(p))
		return nil
	}
	return d.LineTransport.Send(p)
}

func (d *darkStart) Tick(now int64) {
	d.now = now
	if now >= d.lit {
		for _, p := range d.held {
			d.LineTransport.Send(p)
		}
		d.held = nil
	}
	d.LineTransport.Tick(now)
}

func (d *darkStart) Up() bool { return d.now >= d.lit && d.LineTransport.Up() }

// TestDarkLineGivesNoSample: a request that waits in a transport that
// is not up would time the wait, not the line. The late end's line
// stays dark for its first 150 ticks, holding its Configure-Requests
// until its peer's process starts; the peer's line is up from its own
// first tick. Once both are IP-ready, the late end's link_line_rto
// reads no more than the prompt end's.
func TestDarkLineGivesNoSample(t *testing.T) {
	const lit = 150
	pa, pz := transport.NewPipePair()
	late := NewTransportPort(NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}}),
		&darkStart{LineTransport: pa, lit: lit})
	prompt := NewTransportPort(NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}}), pz)
	reg := telemetry.NewRegistry()
	late.Observe(Observation{Registry: reg}, "late")
	prompt.Observe(Observation{Registry: reg}, "prompt")
	late.Link.Open()
	late.Link.Up()
	now := int64(0)
	for ; !late.Link.IPReady() || !prompt.Link.IPReady(); now++ {
		if now == 1000 {
			t.Fatal("the pair never came up")
		}
		late.Tick(now)
		if now == lit {
			prompt.Link.Open()
			prompt.Link.Up()
		}
		if now >= lit {
			prompt.Tick(now)
		}
	}
	late.Tick(now) // mirror the estimates as bring-up left them
	prompt.Tick(now)
	snap := seriesValues(reg)
	l := snap[`link_line_rto{link="late"}`]
	p := snap[`link_line_rto{link="prompt"}`]
	t.Logf("IP-ready at tick %d; link_line_rto late %v, prompt %v", now-1, l, p)
	if l == 0 || l > p {
		t.Errorf("late end's link_line_rto %v exceeds the prompt end's %v: a dark wait was sampled", l, p)
	}
}
