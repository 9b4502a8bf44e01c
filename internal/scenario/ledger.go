package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"

	gigapos "repro"
	"repro/internal/flight"
	"repro/internal/netsim"
)

// This file is the ledger drill the ring and the protected pair share:
// PPP ends brought up on a clean medium, faults armed at traffic start,
// sequence-stamped datagrams both ways on every circuit, and every
// arrival checked against what its peer sent — so loss and corruption
// are counted apart.

// medium carries a ledger drill's circuits: the ring, or the protected
// pair's own lines.
type medium interface {
	// tick moves the medium one frame time, before the ends tick.
	tick(now int64)
	// arm compiles the scripted line faults into the lines, counting from
	// traffic start, and returns the events the drill fires itself.
	arm(events []event, duration int64) []event
	// act fires one of those.
	act(e event)
	// resyncs totals frame-alignment reacquisitions on every line.
	resyncs() uint64
}

// endpoint is one side of a circuit under test.
type endpoint struct {
	port *gigapos.TransportPort
	// path reads the end's receive selector: movements, the outage (or
	// switch time) of the last one, and whether no path is live.
	path func() (switches uint64, failover int64, down bool)

	wasOpen  bool
	reneg    int
	failover int64 // longest outage a switch healed, sampled every tick
	rxErr0   int   // RxErrors at traffic start

	// Verification state for the traffic arriving here.
	expect  map[uint32][]byte // seq -> expected payload
	seq     uint32            // next seq this end will send
	recv    int
	corrupt int
	sent    int
}

// newEndpoint wraps a PPP end on its line for the ledger.
func newEndpoint(port *gigapos.TransportPort, path func() (uint64, int64, bool)) *endpoint {
	return &endpoint{port: port, path: path, expect: make(map[uint32][]byte)}
}

// circuitRun is a circuit plus its two endpoints, observed as the pair
// <name>_a / <name>_z.
type circuitRun struct {
	name string
	a, b *endpoint
}

// ledger runs the drill over m and grades it; a failing circuit dumps
// the black boxes of both its ends.
func (s *Scenario) ledger(res *Result, runs []*circuitRun, m medium, slos map[string]*flight.SLO) {
	// Bring-up: every link must reach the network phase on the clean
	// medium before the chaos starts.
	budget := s.BringUpBudget
	if budget == 0 {
		budget = 4000
	}
	for _, cr := range runs {
		for _, ep := range []*endpoint{cr.a, cr.b} {
			ep.port.Link.Open()
			ep.port.Link.Up()
		}
	}
	now := int64(0)
	ready := false
	for ; now < budget; now++ {
		m.tick(now)
		ready = true
		for _, cr := range runs {
			cr.a.port.Tick(now)
			cr.b.port.Tick(now)
			ready = ready && cr.a.port.Link.IPReady() && cr.b.port.Link.IPReady()
		}
		if ready {
			now++
			break
		}
	}
	if !ready {
		res.Failures = append(res.Failures, Failure{Msg: fmt.Sprintf("bring-up: links not IP-ready within %d ticks", budget)})
		dump(res, runs)
		return
	}
	t0 := now
	res.BringUpTicks = t0
	for _, cr := range runs {
		for _, ep := range []*endpoint{cr.a, cr.b} {
			ep.wasOpen, ep.rxErr0 = true, int(ep.port.Link.RxErrors)
		}
	}
	actions := m.arm(s.Events, s.Duration)
	resyncBase := m.resyncs()

	// Traffic: a deterministic size mix, both directions of every
	// circuit, payloads sequence-stamped so corruption and loss are
	// separable on receipt.
	dist, _ := s.Traffic.dist()
	interval := s.Traffic.Interval
	if interval == 0 {
		interval = 2
	}
	// The senders stop drain ticks before the end so in-flight
	// datagrams settle.
	drain := int64(100)
	if drain >= s.Duration {
		drain = s.Duration / 2
	}
	sizes := netsim.NewRand(s.Traffic.seed())
	escapes := netsim.NewRand(s.Traffic.seed() ^ 0x7E7D) // drawn from only when traffic.density is set

	nextAction := 0
	var rxScratch []gigapos.Datagram
	for t := int64(0); t < s.Duration; t++ {
		now = t0 + t
		for nextAction < len(actions) && actions[nextAction].At == t {
			m.act(actions[nextAction])
			nextAction++
		}
		m.tick(now)
		for ci, cr := range runs {
			for di, ep := range []*endpoint{cr.a, cr.b} {
				ep.port.Tick(now)
				if _, fo, _ := ep.path(); fo > ep.failover {
					ep.failover = fo
				}
				if open := ep.port.Link.Opened(); ep.wasOpen && !open {
					ep.reneg++
					ep.wasOpen = false
				} else if open {
					ep.wasOpen = true
				}
				// Send toward the peer; the peer's endpoint verifies.
				if t < s.Duration-drain && t%interval == int64((ci+di))%interval {
					peer := cr.b
					if di == 1 {
						peer = cr.a
					}
					d := mkDatagram(byte(ci), byte(di), ep.seq, dist.Next(sizes))
					if s.Traffic.Density > 0 && ep.seq&1 == 1 {
						storm(d, s.Traffic.Density, escapes)
					}
					if err := ep.port.Link.SendIPv4(d); err == nil {
						peer.expect[ep.seq] = d
						ep.seq++
						ep.sent++
					}
				}
				rxScratch = ep.port.Link.ReceivedInto(rxScratch[:0])
				for _, d := range rxScratch {
					ep.verify(d.Payload)
				}
			}
		}
	}

	for _, cr := range runs {
		rep := circuitReport{
			Name:      cr.name,
			Sent:      cr.a.sent + cr.b.sent,
			Received:  cr.a.recv + cr.b.recv,
			Corrupted: cr.a.corrupt + cr.b.corrupt,
			Lost:      len(cr.a.expect) + len(cr.b.expect),
			RxErrors:  int(cr.a.port.Link.RxErrors+cr.b.port.Link.RxErrors) - cr.a.rxErr0 - cr.b.rxErr0,
			FailoverA: cr.a.failover,
			FailoverB: cr.b.failover,
			RenegA:    cr.a.reneg,
			RenegB:    cr.b.reneg,
			AlarmA:    slos[cr.name+"_a"].Alarmed(),
			AlarmB:    slos[cr.name+"_z"].Alarmed(),
		}
		rep.SwitchesA, _, rep.DownA = cr.a.path()
		rep.SwitchesB, _, rep.DownB = cr.b.path()
		res.Circuits = append(res.Circuits, rep)
	}
	res.Resyncs = m.resyncs() - resyncBase
	s.grade(res)
	if !res.Pass {
		dump(res, runs)
	}
}

// dump triggers the black box of every failing circuit (or all of them
// for global failures) so the report can point at .p5fr files.
func dump(res *Result, runs []*circuitRun) {
	failing := map[string]bool{}
	global := false
	for _, f := range res.Failures {
		if f.Circuit == "" {
			global = true
		} else {
			failing[f.Circuit] = true
		}
	}
	for _, cr := range runs {
		if !global && !failing[cr.name] {
			continue
		}
		cr.a.port.Link.Flight().Trigger("scenario-fail")
		cr.b.port.Link.Flight().Trigger("scenario-fail")
	}
}

// notePaths keeps the ends' recorders in res for the flight lines and
// makes every capture they write land in res.CapturePaths, chained
// after any hook already on the recorder (p5.OAM.AttachFlight's
// flight-dump interrupt).
func notePaths(res *Result, runs []*circuitRun) {
	for _, cr := range runs {
		for _, rec := range []*flight.Recorder{cr.a.port.Link.Flight(), cr.b.port.Link.Flight()} {
			res.recs = append(res.recs, rec)
			prev := rec.OnCapture
			rec.OnCapture = func(c *flight.Capture) {
				if prev != nil {
					prev(c)
				}
				if c.Path != "" {
					res.CapturePaths = append(res.CapturePaths, c.Path)
				}
			}
		}
	}
}

// mkDatagram builds a sequence-stamped pseudo-IPv4 datagram: circuit
// and direction tags plus a seq number, then a pattern derived from the
// seq so any delivered corruption is detectable.
func mkDatagram(circuit, dir byte, seq uint32, size int) []byte {
	if size < 12 {
		size = 12
	}
	d := make([]byte, size)
	d[0] = 0x45
	d[1] = circuit
	d[2] = dir
	binary.BigEndian.PutUint32(d[4:8], seq)
	for i := 8; i < size; i++ {
		d[i] = patternByte(seq, i)
	}
	return d
}

// storm overwrites the pattern octets of d with flags and escapes, each
// with probability density: the payload the stuffer expands most.
func storm(d []byte, density float64, rng *netsim.Rand) {
	for i := 8; i < len(d); i++ {
		if rng.Float64() < density {
			d[i] = 0x7E - rng.Byte()&1
		}
	}
}

func patternByte(seq uint32, i int) byte {
	return byte((uint32(i)*131 + seq*31 + 7) % 251)
}

// verify grades one delivered datagram against the sender's ledger.
func (ep *endpoint) verify(payload []byte) {
	if len(payload) < 8 || payload[0] != 0x45 {
		ep.corrupt++
		return
	}
	seq := binary.BigEndian.Uint32(payload[4:8])
	want, ok := ep.expect[seq]
	if !ok {
		ep.corrupt++ // unknown or duplicate seq: damaged beyond matching
		return
	}
	delete(ep.expect, seq)
	ep.recv++
	if !bytes.Equal(payload, want) {
		ep.corrupt++
	}
}
