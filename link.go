package gigapos

import (
	"errors"
	"math/rand/v2"

	"repro/internal/hdlc"
	"repro/internal/ipcp"
	"repro/internal/lcp"
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

	// Reliable enables numbered-mode operation (RFC 1663): after LCP
	// opens, the endpoints run SABM/UA and carry network-layer frames
	// with modulo-8 sequence numbers, acknowledgements and go-back-N
	// retransmission — the paper's noisy-wireless configuration. N2,
	// the retransmission limit before a link reset, is 10.
	Reliable bool

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
	// interval, or the line's measured RTO if longer, once Opened;
	// echoMisses consecutive requests with no frame received in reply
	// bring the link down — dead-peer detection.
	EchoPeriod int64

	// Supervise enables the self-healing supervisor: after any outage
	// (SONET defect via NotifyDefects, echo timeout, LCP give-up) the
	// link re-runs LCP/auth/IPCP with capped exponential backoff until
	// it reaches Opened again.
	Supervise bool
	// RetryMin and RetryMax bound the backoff between re-open attempts
	// in virtual time units (defaults 8 and 256). Each retry is
	// jittered ±20% from a seed derived from Magic, so links that fail
	// together re-open apart.
	RetryMin, RetryMax int64
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
	vjTx    *vj.Compressor
	vjRx    *vj.Decompressor
	auth    *linkAuth
	sup     *supervisor

	// networkUp latches entry into the network phase.
	networkUp bool

	protoRejID byte

	echoNext    int64
	echoPending int    // requests since a frame last arrived
	echoRx      uint64 // RxFrames when the last request left
	echoID      byte   // id of the last request

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
	l := &Link{cfg: cfg, tk: cfg.tokenizer()}
	l.lcpPol = lcp.NewLCPPolicy(cfg.Magic)
	l.lcpPol.WantMRU = cfg.MRU
	l.lcpPol.WantPFC = cfg.WantPFC
	l.lcpPol.WantACFC = cfg.WantACFC
	l.lcpPol.AllowPFC = cfg.AllowPFC
	l.lcpPol.AllowACFC = cfg.AllowACFC
	// Two distinct peers that drew the same magic break the tie with
	// fresh random draws; a looped line keeps colliding whatever it draws.
	l.lcpPol.Rand = rand.Uint32

	l.ipcpPol = ipcp.NewPolicy(ipcp.Addr(cfg.IPAddr))
	l.ipcpPol.AssignPeer = ipcp.Addr(cfg.AssignPeer)
	l.ipcpPol.WantVJ = cfg.WantVJ
	l.ipcpPol.AllowVJ = cfg.AllowVJ
	if cfg.WantVJ {
		l.vjRx = vj.NewDecompressor()
	}
	if cfg.AllowVJ {
		// The peer may still decline; the compressor is armed only
		// once IPCP grants VJToPeer.
		l.vjTx = vj.NewCompressor()
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
	l.ipcpA.Line = l.lcpA.Line // one round-trip estimate per line
	l.ipcpA.Open()
	if cfg.Auth.Require != 0 || cfg.Auth.Identity != "" {
		l.initAuth()
	}
	if cfg.Reliable {
		l.initReliable()
	}
	if cfg.Supervise {
		// A per-link seed: sibling links sharing a config still jitter
		// apart (Magic is unique per endpoint).
		seed := uint64(cfg.Magic)<<32 | uint64(cfg.Magic) | 1
		l.sup = &supervisor{lineOK: true, rng: netsim.NewRand(seed)}
	}
	return l
}

// lcpTxConfig is the framing config for control packets (LCP, IPCP,
// PAP/CHAP): they always run uncompressed with default framing.
func (l *Link) lcpTxConfig() ppp.Config {
	return ppp.Config{FCS: l.cfg.fcs(), ACCM: hdlc.ACCMAll}
}

func (c LinkConfig) fcs() FCSSize {
	if c.FCS == 0 {
		return FCS32
	}
	return c.FCS
}

// tokenizer is the receive framer for this configuration. Its frame
// check folds each body once, at the closing flag, so decode never
// re-walks it. Its bounds are what frame can accept: at most the
// header (address, control, two-octet protocol), rxMRU of the
// requested MRU, and the FCS; at least the FCS and one octet. A peer
// that opens a frame and never closes it costs one MaxFrame of arena,
// not the whole stream.
func (c LinkConfig) tokenizer() hdlc.Tokenizer {
	fcs := c.fcs().Bytes()
	return hdlc.Tokenizer{FCS: c.fcs(), MaxFrame: 4 + rxMRU(c.MRU) + fcs, MinFrame: fcs + 1}
}

// rxMRU is the largest information field a link accepts under MRU mru,
// requested or negotiated: never under ppp.DefaultMRU, since control
// packets may exceed a tiny negotiated MRU.
func rxMRU(mru int) int { return max(mru, ppp.DefaultMRU) }

// dataTxConfig is the framing config for every frame after negotiation:
// network-layer frames and numbered mode's I/S/U frames.
func (l *Link) dataTxConfig() ppp.Config {
	cfg := l.lcpPol.TxConfig()
	cfg.FCS = l.cfg.fcs()
	return cfg
}

func (l *Link) rxConfig() ppp.Config {
	cfg := l.lcpPol.RxConfig()
	cfg.FCS = l.cfg.fcs()
	cfg.MRU = rxMRU(cfg.MRU)
	return cfg
}

// sendControl puts one control packet (LCP, IPCP) on the wire under the
// control framing.
func (l *Link) sendControl(proto uint16, p *lcp.Packet) {
	l.ctl = p.Marshal(l.ctl[:0])
	l.sendFrame(l.lcpTxConfig(), proto, l.ctl)
}

// sendFrame puts one frame of protocol proto on the wire under c:
// lcpTxConfig or dataTxConfig (numbered frames: encodeNumbered).
func (l *Link) sendFrame(c ppp.Config, proto uint16, payload []byte) {
	h := c.Header(proto)
	l.out = h.Append(l.out, payload, true)
}

// Open administratively opens the link (LCP Open event).
func (l *Link) Open() { l.lcpA.Open() }

// Up signals that the physical layer is available (LCP Up event).
func (l *Link) Up() { l.lcpA.Up() }

// Advance moves the endpoint's virtual clock (restart timers, the
// numbered-mode T1, the echo keepalive and the supervisor).
func (l *Link) Advance(now int64) {
	l.now = now
	l.lcpA.Advance(now)
	l.ipcpA.Advance(now)
	if l.station != nil {
		l.station.Advance(now)
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

// echoMisses is the unanswered-echo limit.
const echoMisses = 3

// serviceEcho implements the keepalive: periodic Echo-Requests on an
// opened link, teardown after echoMisses silent periods.
func (l *Link) serviceEcho(now int64) {
	if l.cfg.EchoPeriod <= 0 || !l.Opened() {
		l.echoNext = 0
		l.echoPending = 0
		return
	}
	// Any frame received before the next request answers this one.
	period := max(l.cfg.EchoPeriod, l.lcpA.Line.Period(0))
	if l.echoNext == 0 {
		l.echoNext = now + period
		return
	}
	if now < l.echoNext {
		return
	}
	if l.RxFrames != l.echoRx {
		l.echoPending = 0
	}
	if l.echoPending >= echoMisses {
		// Dead peer: the link goes down (RFC 1661 §5.8 is the
		// liveness tool; teardown policy is the implementation's).
		l.EchoTimeouts++
		l.trace("echo-timeout", "", echoMisses, 0)
		l.echoPending = 0
		l.lcpA.Down()
		return
	}
	l.echoPending++
	l.echoID++
	l.echoRx = l.RxFrames
	var magic [4]byte
	m := l.cfg.Magic
	magic[0], magic[1], magic[2], magic[3] = byte(m>>24), byte(m>>16), byte(m>>8), byte(m)
	l.sendControl(ppp.ProtoLCP, &lcp.Packet{Code: lcp.EchoRequest, ID: l.echoID, Data: magic[:]})
	l.echoNext = now + period
}

// Opened reports whether LCP has reached the Opened state.
func (l *Link) Opened() bool { return l.lcpA.State() == lcp.Opened }

// IPReady reports whether IPCP has opened (IP traffic may flow).
func (l *Link) IPReady() bool { return l.ipcpA.State() == lcp.Opened }

// LocalIP returns the negotiated local IPv4 address.
func (l *Link) LocalIP() [4]byte { return [4]byte(l.ipcpPol.LocalAddr) }

// Send queues a network-layer payload for transmission.
func (l *Link) Send(proto uint16, payload []byte) error {
	if !l.Opened() {
		return ErrLinkDown
	}
	if (proto == ppp.ProtoIPv4 || proto == ppp.ProtoVJC || proto == ppp.ProtoVJU) && !l.IPReady() {
		return ErrLinkDown
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
		if err := l.station.Send(info); err != nil {
			return err
		}
	} else {
		l.sendFrame(l.dataTxConfig(), proto, payload)
	}
	switch proto {
	case ppp.ProtoIPv4, ppp.ProtoIPv6, ppp.ProtoVJC, ppp.ProtoVJU:
		l.flightDepart() // the protocols the peer's network dispatch delivers
	}
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
		l.out = hdr.Append(l.out, d, true)
		l.flightDepart()
	}
	return len(datagrams), nil
}

// SendIPv4 queues an IPv4 datagram, applying Van Jacobson header
// compression when IPCP has negotiated it.
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
	return l.Send(proto, datagram)
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
// counted and shown to the flight burst detector.
func (l *Link) rxError() {
	l.RxErrors++
	l.flightNoteError()
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
	default:
		return l.network(&f)
	}
	return false
}

// network dispatches a network-layer packet, from a plain frame or a
// numbered-mode station's information field: IPv4 and IPv6 are queued
// for Received, VJ packets decompressed into IPv4 (or Protocol-Rejected
// when VJ was not negotiated), anything else Protocol-Rejected (RFC 1661
// §5.7). True means it queued a datagram.
func (l *Link) network(f *ppp.Frame) bool {
	switch f.Protocol {
	case ppp.ProtoIPv4, ppp.ProtoIPv6:
		// Copy out of the tokenizer's recycled arena: the queued
		// datagram must survive any number of further Input calls.
		l.deliver(f.Protocol, l.copyRx(f.Payload))
		return true
	case ppp.ProtoVJC, ppp.ProtoVJU:
		if l.vjRx == nil {
			l.protocolReject(f)
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
		l.deliver(ppp.ProtoIPv4, pkt)
		return true
	default:
		l.protocolReject(f)
	}
	return false
}

// deliver is the one arrival site: it queues a received datagram for
// Received, stamps the queue stage and completes the sender's departure
// pipe. Every datagram Send tags lands here at the peer. Plain delivery
// is every link's hot path: deliver inlines, and an end that is neither
// profiled nor armed pays one append and two nil checks.
func (l *Link) deliver(proto uint16, payload []byte) {
	l.rx = append(l.rx, Datagram{Protocol: proto, Payload: payload})
	if l.prof != nil || l.fl != nil {
		l.delivered()
	}
}

// delivered is deliver's observed half, out of line.
func (l *Link) delivered() {
	l.prof.Stamp(prof.StageQueue)
	l.flightArrive()
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
