package gigapos

import (
	"math/rand/v2"

	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/transport"
)

// TransportPort binds one Link endpoint to a LineTransport — a pipe, a
// socket, an STM-N section, a protected pair (aps.Protected) or a ring
// circuit (topo.Port): the one place a Link meets its line. Each tick it
// flushes the link's pending wire output into the transport, ticks the
// transport, maps liveness edges onto the supervisor's defect machinery
// as AlarmTransportLOS, and feeds received chunks back into the link.
//
// The ownership contracts line up without copies on the receive side:
// transport.Recv payloads stay valid until the second-following Recv,
// and Link.InputBatch never retains its chunks. On transmit,
// transport.Send does not retain the Link.Output buffer.
//
// Like Link, a TransportPort is driven from one goroutine.
type TransportPort struct {
	Link *Link
	T    transport.LineTransport

	// TxLineBytes counts wire octets offered to the transport.
	TxLineBytes uint64

	sawUp    bool // transport has been up at least once
	wasUp    bool // liveness seen by the previous Poll
	rxChunks [][]byte

	// Correlation plumbing (Observe): the transport's freeze side
	// channel, and the peer freeze currently being serviced (stamped
	// onto the capture its Trigger produces).
	fz          transport.Freezer
	pending     transport.FreezeInfo
	havePending bool
	rxFreezes   []transport.FreezeInfo
}

// NewTransportPort binds l to t. A line with a selector of its own gets
// the link's failover step: every movement feeds the SLO's failover
// objective and, once a recorder is armed, dumps the black box.
func NewTransportPort(l *Link, t transport.LineTransport) *TransportPort {
	if s, ok := t.(transport.Selector); ok {
		s.OnFailover(l.flightFailover)
	}
	return &TransportPort{Link: l, T: t}
}

// Observe arms o on the port's Link and adds what the line has: with
// Registry the transport_* series labelled {line=name} and, on a line
// with a selector of its own, the selector's series labelled
// {link=name} with its events to Tracer (transport.Selector); with Flight
// on a transport with a freeze side channel (transport.Freezer: the
// sockets, not Pipe or a sonet.Line) the recorder joins it, turning
// isolated black-box dumps into correlated capture pairs (DESIGN.md
// §16): a local trigger on the correlation leader mints a shared
// incident ID and freeze-pings the peer; the peer either back-stamps the
// ID onto the capture its own detection already produced, or dumps
// fresh under reason "peer-freeze". Every capture is also stamped with
// the transport's clock/tick offset estimates — p5trace -join's inputs.
func (p *TransportPort) Observe(o Observation, name string) {
	p.Link.Observe(o, name)
	if o.Registry != nil {
		transport.Instrument(o.Registry, name, p.T)
		if s, ok := p.T.(transport.Selector); ok {
			s.Instrument(o.Registry, o.Tracer, name)
		}
	}
	if fz, ok := p.T.(transport.Freezer); ok && o.Flight != nil {
		p.fz = fz
		p.Link.fl.rec.Correlate = p.correlate
	}
}

func (p *TransportPort) endpoint() *Link { return p.Link }

// correlate runs inside Recorder.Trigger, before the capture file is
// written.
func (p *TransportPort) correlate(c *flight.Capture) {
	if lm, ok := p.T.(transport.LatencyMeter); ok {
		lat := lm.Latency()
		c.ClockOffsetNS = lat.ClockOffsetNS
		c.TickOffset = lat.TickOffset
	}
	if p.havePending {
		// Servicing a peer freeze: adopt its incident, never re-ping —
		// the ping-pong stops here.
		c.Incident = p.pending.Incident
		c.FromPeer = true
		c.PeerNow = p.pending.Tick
		c.PeerWallNs = p.pending.WallNs
		return
	}
	if c.Reason == "transport-los" {
		// A symmetric outage fires local detection on both ends. Only
		// the leader mints the ID; the follower captures uncorrelated
		// and adopts the leader's ID when its freeze ping lands.
		if !p.fz.CorrelationLeader() {
			return
		}
	} else if !p.T.Up() {
		// Any other trigger on a dead line (supervisor restarts cycling
		// through a blackout) stays uncorrelated: the queued ping would
		// only land after recovery, far outside the peer's loss horizon,
		// spraying spurious peer-freeze dumps.
		return
	}
	c.Incident = rand.Uint64() | 1
	p.fz.SendFreeze(transport.FreezeInfo{
		Incident: c.Incident,
		Reason:   c.Reason,
		Tick:     c.Now,
		WallNs:   c.WallNs,
	})
}

// drainFreezes services peer freeze pings: a recent uncorrelated local
// capture inside the loss horizon adopts the incident ID; otherwise
// the black box is dumped fresh under "peer-freeze".
func (p *TransportPort) drainFreezes() {
	p.rxFreezes = p.fz.Freezes(p.rxFreezes[:0])
	for _, f := range p.rxFreezes {
		if p.Link.fl.rec.AdoptIncident(f.Incident, f.Reason, f.Tick, f.WallNs) {
			continue
		}
		p.pending = f
		p.havePending = true
		p.Link.fl.rec.Trigger("peer-freeze")
		p.havePending = false
	}
}

// Flush moves the link's pending wire output into the transport and
// returns the octet count.
func (p *TransportPort) Flush() int {
	out := p.Link.Output()
	if len(out) == 0 {
		return 0
	}
	p.TxLineBytes += uint64(len(out))
	if !p.T.Up() {
		p.Link.lcpA.Line.Dark(p.Link.now)
	}
	p.T.Send(out)
	return len(out)
}

// Poll ticks the transport, escalates liveness edges into the link's
// defect supervisor, and feeds received chunks into the link. It
// returns the received octet count.
//
// The first time the transport comes up nothing is reported — the
// supervisor starts with the line presumed healthy, and alarming a
// still-dialing socket at startup would fire a spurious outage. After
// that, down edges raise AlarmTransportLOS (outage, flight capture,
// LCP Down) and up edges clear it (immediate supervised re-open).
func (p *TransportPort) Poll(now int64) int {
	p.T.Tick(now)
	up := p.T.Up()
	switch {
	case up && !p.sawUp:
		p.sawUp, p.wasUp = true, true
	case p.sawUp && up != p.wasUp:
		p.wasUp = up
		if up {
			p.Link.NotifyDefects(0)
		} else {
			p.Link.NotifyDefects(AlarmTransportLOS)
		}
	}
	p.rxChunks = p.T.Recv(p.rxChunks[:0])
	// Socket and pipe time is line time: stamp before the link's own
	// receive stages start charging.
	p.Link.prof.Stamp(prof.StageLine)
	n := 0
	for _, c := range p.rxChunks {
		n += len(c)
	}
	p.Link.InputBatch(p.rxChunks)
	if p.fz != nil {
		p.drainFreezes()
	}
	return n
}

// Tick runs one full port tick for standalone use (outside the engine,
// which interleaves Flush and Poll with its stage accounting): advance
// the link clock, flush transmit, poll receive.
func (p *TransportPort) Tick(now int64) {
	p.Link.Advance(now)
	p.Flush()
	p.Poll(now)
}
