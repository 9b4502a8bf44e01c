package gigapos

import (
	"errors"

	"repro/internal/hdlc"
	"repro/internal/ipcp"
	"repro/internal/lcp"
	"repro/internal/lqm"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/prof"
	"repro/internal/reliable"
	"repro/internal/vj"
)

// LinkConfig configures a software PPP endpoint.
type LinkConfig struct {
	// Magic is the LCP magic number (0 disables the option).
	Magic uint32
	// MRU to request; 0 keeps the 1500 default.
	MRU int
	// WantPFC/WantACFC request header compression for our receive
	// direction; AllowPFC/AllowACFC grant it to the peer.
	WantPFC, WantACFC   bool
	AllowPFC, AllowACFC bool
	// FCS selects the frame check sequence (default FCS32).
	FCS FCSSize
	// IPAddr is our IPv4 address for IPCP (zero requests assignment).
	IPAddr [4]byte
	// AssignPeer, when non-zero, is handed to a peer that requests an
	// address.
	AssignPeer [4]byte
	// Rand supplies randomness for magic-number collisions (optional).
	Rand func() uint32

	// Reliable enables numbered-mode operation (RFC 1663): after LCP
	// opens, the endpoints run SABM/UA and carry network-layer frames
	// with modulo-8 sequence numbers, acknowledgements and go-back-N
	// retransmission — the paper's noisy-wireless configuration.
	Reliable bool
	// ReliableWindow is the transmit window k (default 7).
	ReliableWindow int
	// ReliablePeriod is the T1 retransmit timer in virtual time units.
	ReliablePeriod int64
	// ReliableMaxRetries is N2, the retransmission limit before a link
	// reset (default 10).
	ReliableMaxRetries int

	// WantVJ requests Van Jacobson TCP/IP header compression for our
	// receive direction (RFC 1144 via IPCP, RFC 1332 §4); AllowVJ
	// grants it to the peer.
	WantVJ, AllowVJ bool

	// Auth configures the authentication phase (PAP / CHAP).
	Auth AuthConfig

	// RestartPeriod is read by nothing (the restart timer measures its
	// line); it stays until the benchmark, its last setter, drops it.
	RestartPeriod int64

	// EchoPeriod, when non-zero, sends LCP Echo-Requests at this
	// interval once Opened; EchoMisses consecutive unanswered echoes
	// (default 3) bring the link down — dead-peer detection.
	EchoPeriod int64
	// EchoMisses is the unanswered-echo limit (default 3).
	EchoMisses int

	// LQMPeriod, when non-zero, enables RFC 1333 link quality
	// monitoring with the given reporting period (virtual time units).
	LQMPeriod int64
	// LQMMaxLossPct is the loss threshold for a Bad verdict.
	LQMMaxLossPct float64
	// LQMGoodWindows is the recovery hysteresis.
	LQMGoodWindows int

	// Supervise enables the self-healing supervisor: after any outage
	// (SONET defect via NotifyDefects, echo timeout, LCP give-up, Bad
	// LQM verdict) the link re-runs LCP/auth/IPCP with capped
	// exponential backoff until it reaches Opened again.
	Supervise bool
	// RetryMin and RetryMax bound the backoff between re-open attempts
	// in virtual time units (defaults 8 and 256).
	RetryMin, RetryMax int64
	// RestartOnBadLQM makes a Bad RFC 1333 verdict trigger a
	// supervised restart (requires LQMPeriod and Supervise).
	RestartOnBadLQM bool
	// JitterSeed seeds the ±20% jitter applied to supervised retry
	// scheduling, de-synchronising links that fail together (0 derives
	// a per-link seed from Magic).
	JitterSeed uint64
}

// Datagram is one received network-layer packet.
type Datagram struct {
	Protocol uint16
	Payload  []byte
}

// Link is a complete software PPP endpoint: HDLC framing, LCP link
// negotiation, IPCP address configuration, and network-layer transport,
// all speaking the byte stream format the P5 hardware model puts on the
// line. Wire a pair of Links together (directly or through the sonet
// framer) and they will bring themselves up.
//
// Link is not safe for concurrent use; drive it from one goroutine.
type Link struct {
	cfg LinkConfig

	lcpPol  *lcp.LCPPolicy
	lcpA    *lcp.Automaton
	ipcpPol *ipcp.Policy
	ipcpA   *lcp.Automaton

	// Transmit side: the pending wire bytes are double-buffered so
	// Output can hand the caller a filled buffer and keep encoding into
	// the other without clearing to nil — no per-drain allocation.
	out      []byte // pending transmit bytes (wire format)
	outSpare []byte // the other half of the double buffer

	tk   hdlc.Tokenizer
	toks []hdlc.Token // reusable token scratch for Input

	// Receive side: datagram payloads are copied out of the tokenizer's
	// recycled arena into a link-owned arena, double-buffered at drain
	// time, so Input may be fed aggressively recycled buffers while
	// drained datagrams stay intact.
	rx           []Datagram
	rxSpare      []Datagram
	rxArena      []byte
	rxArenaSpare []byte

	ctl     []byte   // control-packet marshal scratch
	relFree [][]byte // free list of numbered-mode information buffers

	station *reliable.Station
	monitor *lqm.Monitor
	vjTx    *vj.Compressor
	vjRx    *vj.Decompressor
	auth    *linkAuth
	sup     *supervisor

	// networkUp latches entry into the network phase.
	networkUp bool

	protoRejID byte

	echoNext    int64
	echoPending int  // unanswered echoes
	echoID      byte // id of the outstanding echo

	// Stats.
	RxFrames, RxErrors uint64
	ProtocolRejects    uint64
	AuthFailures       uint64
	RxBadAuth          uint64
	EchoTimeouts       uint64

	// Telemetry (nil until Observe with a Registry or Tracer).
	tel *linkTelemetry
	// Flight recorder (nil until Observe with Flight).
	fl *flightState
	// Stage clock of the engine shard driving this link (nil unless
	// Engine.Observe armed a Profile): the receive path stamps its stages
	// into the shard's one table.
	prof *prof.ShardProfile
	now  int64 // virtual time of the latest Advance, for event stamps
}

// ErrLinkDown is returned when sending on a link whose LCP (or IPCP,
// for IP traffic) has not reached Opened.
var ErrLinkDown = errors.New("gigapos: link not opened")

// NewLink creates an endpoint with the given configuration.
func NewLink(cfg LinkConfig) *Link {
	l := &Link{cfg: cfg}
	// Arm the tokenizer's frame check: it folds each body once, at the
	// closing flag, so decode never re-walks it.
	l.tk.FCS = cfg.fcs()
	l.lcpPol = lcp.NewLCPPolicy(cfg.Magic)
	l.lcpPol.WantMRU = cfg.MRU
	l.lcpPol.WantPFC = cfg.WantPFC
	l.lcpPol.WantACFC = cfg.WantACFC
	l.lcpPol.AllowPFC = cfg.AllowPFC
	l.lcpPol.AllowACFC = cfg.AllowACFC
	l.lcpPol.Rand = cfg.Rand

	l.ipcpPol = ipcp.NewPolicy(ipcp.Addr(cfg.IPAddr))
	l.ipcpPol.AssignPeer = ipcp.Addr(cfg.AssignPeer)
	l.ipcpPol.WantVJ = cfg.WantVJ
	l.ipcpPol.AllowVJ = cfg.AllowVJ
	if cfg.WantVJ {
		l.vjRx = vj.NewDecompressor(0)
	}
	if cfg.AllowVJ {
		// The peer may still decline; the compressor is armed only
		// once IPCP grants VJToPeer.
		l.vjTx = vj.NewCompressor(0)
	}

	l.lcpA = lcp.NewAutomaton(
		func(p *lcp.Packet) { l.sendControl(ppp.ProtoLCP, p) },
		l.lcpPol,
		lcp.Hooks{
			Up: func() {
				// Authentication phase (RFC 1661 §3.5), then the
				// network phase: IPCP and numbered-mode setup.
				if l.auth != nil {
					l.startAuthPhase()
					return
				}
				l.maybeEnterNetworkPhase()
			},
			Down: func() {
				l.networkUp = false
				l.ipcpA.Down()
				if l.station != nil {
					l.station.Disconnect()
				}
			},
		},
	)
	l.ipcpA = lcp.NewAutomaton(
		func(p *lcp.Packet) { l.sendControl(ppp.ProtoIPCP, p) },
		l.ipcpPol,
		lcp.Hooks{},
	)
	l.ipcpA.Open()
	if cfg.Auth.Require != 0 || cfg.Auth.Identity != "" {
		l.initAuth()
	}
	if cfg.Reliable {
		l.initReliable()
	}
	if cfg.LQMPeriod > 0 {
		l.initLQM()
	}
	if cfg.Supervise {
		seed := cfg.JitterSeed
		if seed == 0 {
			// Derive a per-link seed so sibling links sharing a config
			// still jitter apart (Magic is unique per endpoint).
			seed = uint64(cfg.Magic)<<32 | uint64(cfg.Magic) | 1
		}
		l.sup = &supervisor{lineOK: true, rng: netsim.NewRand(seed)}
	}
	return l
}

// lcpTxConfig is the framing config for control packets: LCP always
// runs uncompressed with default framing.
func (l *Link) lcpTxConfig() ppp.Config {
	return ppp.Config{FCS: l.cfg.fcs(), ACCM: hdlc.ACCMAll}
}

func (c LinkConfig) fcs() FCSSize {
	if c.FCS == 0 {
		return FCS32
	}
	return c.FCS
}

// dataTxConfig is the framing config for network-layer frames after
// negotiation.
func (l *Link) dataTxConfig() ppp.Config {
	cfg := l.lcpPol.TxConfig()
	cfg.FCS = l.cfg.fcs()
	return cfg
}

func (l *Link) rxConfig() ppp.Config {
	cfg := l.lcpPol.RxConfig()
	cfg.FCS = l.cfg.fcs()
	cfg.MRU = 0 // control packets may exceed a tiny negotiated MRU
	return cfg
}

func (l *Link) sendControl(proto uint16, p *lcp.Packet) {
	l.ctl = p.Marshal(l.ctl[:0])
	f := ppp.Frame{Protocol: proto, Payload: l.ctl}
	l.out = ppp.AppendFrame(l.out, &f, l.lcpTxConfig(), true)
}

// Open administratively opens the link (LCP Open event).
func (l *Link) Open() { l.lcpA.Open() }

// Up signals that the physical layer is available (LCP Up event).
func (l *Link) Up() { l.lcpA.Up() }

// Down signals loss of the physical layer.
func (l *Link) Down() { l.lcpA.Down() }

// Close administratively closes the link.
func (l *Link) Close() { l.lcpA.Close() }

// Advance moves the endpoint's virtual clock (restart timers, the
// numbered-mode T1, and quality report cadence).
func (l *Link) Advance(now int64) {
	l.now = now
	l.lcpA.Advance(now)
	l.ipcpA.Advance(now)
	if l.station != nil {
		l.station.Advance(now)
	}
	if l.monitor != nil {
		l.monitor.Advance(now)
	}
	l.serviceEcho(now)
	l.serviceSupervisor(now)
	if l.fl != nil {
		l.serviceFlight(now)
	}
	if l.tel != nil {
		l.tel.mirror.Sync()
	}
}

// serviceEcho implements the keepalive: periodic Echo-Requests on an
// opened link, teardown after EchoMisses silent periods.
func (l *Link) serviceEcho(now int64) {
	if l.cfg.EchoPeriod <= 0 || !l.Opened() {
		l.echoNext = 0
		l.echoPending = 0
		return
	}
	if l.echoNext == 0 {
		l.echoNext = now + l.cfg.EchoPeriod
		return
	}
	if now < l.echoNext {
		return
	}
	misses := l.cfg.EchoMisses
	if misses <= 0 {
		misses = 3
	}
	if l.echoPending >= misses {
		// Dead peer: the link goes down (RFC 1661 §5.8 is the
		// liveness tool; teardown policy is the implementation's).
		l.EchoTimeouts++
		l.trace("echo-timeout", "", int64(misses), 0)
		l.echoPending = 0
		l.lcpA.Down()
		return
	}
	l.echoPending++
	l.echoID++
	var magic [4]byte
	m := l.cfg.Magic
	magic[0], magic[1], magic[2], magic[3] = byte(m>>24), byte(m>>16), byte(m>>8), byte(m)
	pkt := lcpPacket(9 /* Echo-Request */, l.echoID, magic[:])
	l.out = ppp.AppendFrame(l.out, &ppp.Frame{Protocol: ppp.ProtoLCP, Payload: pkt},
		l.lcpTxConfig(), true)
	l.echoNext = now + l.cfg.EchoPeriod
}

// Opened reports whether LCP has reached the Opened state.
func (l *Link) Opened() bool { return l.lcpA.State() == lcp.Opened }

// IPReady reports whether IPCP has opened (IP traffic may flow).
func (l *Link) IPReady() bool { return l.ipcpA.State() == lcp.Opened }

// LocalIP returns the negotiated local IPv4 address.
func (l *Link) LocalIP() [4]byte { return [4]byte(l.ipcpPol.LocalAddr) }

// PeerIP returns the peer's negotiated IPv4 address.
func (l *Link) PeerIP() [4]byte { return [4]byte(l.ipcpPol.PeerAddr) }

// Send queues a network-layer payload for transmission.
func (l *Link) Send(proto uint16, payload []byte) error {
	if !l.Opened() {
		return ErrLinkDown
	}
	if (proto == ppp.ProtoIPv4 || proto == ppp.ProtoVJC || proto == ppp.ProtoVJU) && !l.IPReady() {
		return ErrLinkDown
	}
	if l.monitor != nil {
		l.monitor.CountOutPacket(len(payload))
	}
	if l.station != nil {
		if !l.station.Connected() {
			return ErrLinkDown
		}
		// Information buffers come from a free list refilled by the
		// station's Release hook when frames are acknowledged — no
		// per-packet allocation in the steady state.
		info := l.getInfoBuf()
		info = append(info, byte(proto>>8), byte(proto))
		info = append(info, payload...)
		return l.station.Send(info)
	}
	f := ppp.Frame{Protocol: proto, Payload: payload}
	l.out = ppp.AppendFrame(l.out, &f, l.dataTxConfig(), true)
	return nil
}

// getInfoBuf pops an empty scratch buffer off the numbered-mode free
// list, growing the list when the window outruns it.
func (l *Link) getInfoBuf() []byte {
	if n := len(l.relFree); n > 0 {
		b := l.relFree[n-1]
		l.relFree = l.relFree[:n-1]
		return b[:0]
	}
	return nil
}

// SendIPv4Batch queues a batch of IPv4 datagrams, amortising the
// per-call dispatch — phase checks, framing-config assembly, VJ arming
// — across the batch. It returns the number of datagrams queued; on
// error the remainder of the batch is not attempted.
func (l *Link) SendIPv4Batch(datagrams [][]byte) (int, error) {
	if !l.Opened() || !l.IPReady() {
		return 0, ErrLinkDown
	}
	if (l.vjTx != nil && l.VJGranted()) || l.station != nil {
		// Compressed or numbered mode: per-datagram work dominates, go
		// through the full path.
		for i, d := range datagrams {
			if err := l.SendIPv4(d); err != nil {
				return i, err
			}
		}
		return len(datagrams), nil
	}
	// One head for the whole batch, stuffed and folded into the FCS here;
	// not latched on the link, so a renegotiation invalidates nothing.
	hdr := l.dataTxConfig().Header(ppp.ProtoIPv4)
	for _, d := range datagrams {
		if l.monitor != nil {
			l.monitor.CountOutPacket(len(d))
		}
		l.out = hdr.Append(l.out, d, true)
		l.flightDepart()
	}
	return len(datagrams), nil
}

// SendIPv4 queues an IPv4 datagram, applying Van Jacobson header
// compression when IPCP has negotiated it. With the flight recorder
// armed the datagram is tagged at departure.
func (l *Link) SendIPv4(datagram []byte) error {
	proto := uint16(ppp.ProtoIPv4)
	if l.vjTx != nil && l.VJGranted() {
		var typ vj.Type
		typ, datagram = l.vjTx.Compress(datagram)
		switch typ {
		case vj.TypeCompressed:
			proto = ppp.ProtoVJC
		case vj.TypeUncompressed:
			proto = ppp.ProtoVJU
		}
	}
	err := l.Send(proto, datagram)
	if err == nil {
		l.flightDepart()
	}
	return err
}

// VJGranted reports whether the peer agreed to receive VJ-compressed
// packets from us.
func (l *Link) VJGranted() bool { return l.ipcpPol.VJToPeer && l.IPReady() }

// Output drains the pending transmit byte stream (wire format: flags,
// stuffing, FCS). Feed it to the peer's Input or to a PHY.
//
// The returned slice is one half of a double buffer: it stays intact
// while the link encodes into the other half, and is recycled by the
// second-following Output call. Consume (or copy) it before then.
func (l *Link) Output() []byte {
	o := l.out
	l.out, l.outSpare = l.outSpare[:0], o
	return o
}

// HasOutput reports whether transmit bytes are pending.
func (l *Link) HasOutput() bool { return len(l.out) > 0 }

// Input feeds received line bytes into the endpoint; complete frames
// are decoded and dispatched (control packets drive the automatons,
// network packets are queued for Received). Input never retains stream,
// and queued datagram payloads are copies — the caller may recycle the
// buffer immediately.
func (l *Link) Input(stream []byte) {
	if l.fl != nil {
		l.fl.rec.TapRx(stream) // black box: retain the raw wire octets
	}
	l.toks = l.tk.Feed(l.toks[:0], stream)
	l.prof.Stamp(prof.StageTokenize)
	// The receive config only changes at a control frame: latched here,
	// handed down by pointer, and read again after any frame that queued
	// no datagram — an Ack mid-chunk can turn PFC/ACFC on for the next.
	cfg := l.rxConfig()
	for i := range l.toks {
		tok := &l.toks[i]
		if tok.Err != nil {
			l.rxError()
		} else if !l.frame(tok.Body, tok.FCSOK, &cfg) {
			cfg = l.rxConfig()
		}
	}
}

// rxError is the one exit for a damaged received frame — framing error,
// bad FCS or header, unusable numbered frame, undecompressable VJ packet:
// counted, shown to the flight burst detector, reported in LQM InErrors.
func (l *Link) rxError() {
	l.RxErrors++
	l.flightNoteError()
	if l.monitor != nil {
		l.monitor.CountInError()
	}
}

// InputBatch feeds a batch of received chunks, amortising dispatch the
// way SendIPv4Batch does on the transmit side. Chunks may share (and
// recycle) one underlying buffer: each is fully consumed before the
// next is touched.
func (l *Link) InputBatch(chunks [][]byte) {
	for _, c := range chunks {
		l.Input(c)
	}
}

// frame dispatches one frame body under the latched receive config; true
// means it queued a datagram, the outcome that cannot change the config.
func (l *Link) frame(body []byte, fcsOK bool, cfg *ppp.Config) bool {
	// Numbered-mode frames carry an I/S/U control octet instead of UI;
	// they belong to the station (0x03 itself is the UI encoding, so
	// the dispatch is unambiguous).
	if l.station != nil && len(body) >= 2 && body[0] == ppp.AddrAllStations && body[1] != ppp.CtrlUI {
		if l.decodeNumbered(body, fcsOK) {
			l.RxFrames++
		} else {
			l.rxError()
		}
		return false
	}
	// The FCS verdict comes fused from the tokenizer; decode itself
	// only parses the header, with no second pass over the body.
	var f ppp.Frame
	if !fcsOK || ppp.DecodeVerifiedBodyInto(&f, body, *cfg) != nil {
		l.rxError()
		return false
	}
	l.prof.Stamp(prof.StageDecode)
	l.RxFrames++
	switch f.Protocol {
	case ppp.ProtoLCP:
		if p, err := lcp.ParsePacket(f.Payload); err == nil {
			if p.Code == lcp.EchoReply && p.ID == l.echoID {
				l.echoPending = 0
			}
			l.lcpA.Receive(p)
		}
	case ppp.ProtoIPCP:
		// NCP packets are silently discarded until LCP is opened
		// (RFC 1661 phase rules).
		if l.Opened() {
			if p, err := lcp.ParsePacket(f.Payload); err == nil {
				l.ipcpA.Receive(p)
			}
		}
	case 0xC023, 0xC223: // PAP / CHAP
		l.authFrame(&f)
	case lqm.Proto:
		if l.monitor != nil {
			if q, ok := lqm.Parse(f.Payload); ok {
				l.monitor.Receive(&q)
			}
		}
	case ppp.ProtoIPv4, ppp.ProtoIPv6:
		if l.monitor != nil {
			l.monitor.CountInPacket(len(f.Payload))
		}
		// Copy out of the tokenizer's recycled arena: the queued
		// datagram must survive any number of further Input calls.
		l.rx = append(l.rx, Datagram{Protocol: f.Protocol, Payload: l.copyRx(f.Payload)})
		l.prof.Stamp(prof.StageQueue)
		l.flightArrive()
		return true
	case ppp.ProtoVJC, ppp.ProtoVJU:
		if l.vjRx == nil {
			l.protocolReject(&f)
			return false
		}
		typ := vj.TypeCompressed
		if f.Protocol == ppp.ProtoVJU {
			typ = vj.TypeUncompressed
		}
		pkt, err := l.vjRx.Decompress(typ, f.Payload)
		if err != nil {
			l.rxError()
			return false
		}
		l.prof.Stamp(prof.StageVJ)
		if l.monitor != nil {
			l.monitor.CountInPacket(len(pkt))
		}
		l.rx = append(l.rx, Datagram{Protocol: ppp.ProtoIPv4, Payload: pkt})
		l.prof.Stamp(prof.StageQueue)
		l.flightArrive()
		return true
	default:
		// Unknown protocol: Protocol-Reject (RFC 1661 §5.7).
		l.protocolReject(&f)
	}
	return false
}

// copyRx appends p to the link's receive arena and returns the stored
// span. The arena is double-buffered at drain time, so the span outlives
// every subsequent Input until the second-following drain.
func (l *Link) copyRx(p []byte) []byte {
	n := len(l.rxArena)
	l.rxArena = append(l.rxArena, p...)
	return l.rxArena[n : n+len(p) : n+len(p)]
}

// Received drains the queue of received network-layer datagrams.
//
// The returned slice and the payloads it references are one half of a
// double buffer: they stay intact while the link keeps receiving, and
// are recycled after the second-following drain (Received or
// ReceivedInto). Consume or copy them before then.
func (l *Link) Received() []Datagram {
	r := l.rx
	l.rx, l.rxSpare = l.rxSpare[:0], r
	l.rxArena, l.rxArenaSpare = l.rxArenaSpare[:0], l.rxArena
	if len(r) == 0 {
		return nil
	}
	return r
}

// ReceivedInto appends the drained datagrams to dst and returns it —
// the batch-drain form: callers reusing dst across drains avoid the
// queue-header traffic of Received. Payload ownership follows the same
// double-buffer rule as Received.
func (l *Link) ReceivedInto(dst []Datagram) []Datagram {
	dst = append(dst, l.rx...)
	l.rx = l.rx[:0]
	l.rxArena, l.rxArenaSpare = l.rxArenaSpare[:0], l.rxArena
	return dst
}

// NegotiatedMRU returns the MRU granted to our transmit direction.
func (l *Link) NegotiatedMRU() int { return l.lcpPol.Peer.MRU }
