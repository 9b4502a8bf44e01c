package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	gigapos "repro"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/sonet"
	"repro/internal/transport"
)

// workload is one traffic path, set up and ready to carry frames. All
// workloads are closed-loop with one client: the next batch is offered
// only after the previous one was drained and checked.
type workload interface {
	// step offers one batch and drains what the path delivers, checking
	// count, length and IPv4 ID order. It returns the frames and payload
	// octets delivered intact and the frames given up as lost. On an
	// in-process path a missing frame is an error, never a loss.
	step(tr *tracer) (delivered, octets, lost int, err error)
	// verify pushes one exact pool cycle through the path and compares
	// every delivered datagram byte-for-byte and in order with the one
	// offered.
	verify() (verdict, error)
	// latency sends one frame on the idle path and returns the time
	// until it is drained at the peer.
	latency() (time.Duration, error)
	// replayInput is what the codec ladder replays: the workload's
	// datagrams and how many of them make one wire chunk.
	replayInput() (frames [][]byte, batch int)
	// layers adds the workload's own per-layer metrics (traced pass):
	// what its spans and counters say, and its own standalone replays.
	layers(m map[string]float64, tc *traceCtx) error
	close()
}

// verdict is the outcome of one verification pass.
type verdict struct {
	offered, delivered int
	payload, line      float64 // octets; line is what carried payload
}

// setupInfo is what a set-up measured about itself.
type setupInfo struct {
	genS         float64
	bringupTicks int
}

// pool is the seeded traffic of one workload: the program under test
// sees only these datagrams. It is walked cyclically in whole batches.
type pool struct {
	frames [][]byte
	next   int
}

// newPool generates datagrams until the pool holds at least minOctets
// and a whole number of batches.
func newPool(seed uint64, dist netsim.SizeDist, density float64, minOctets, batch int) *pool {
	gen := netsim.NewGen(seed, dist, density)
	p := &pool{}
	for n := 0; n < minOctets || len(p.frames)%batch != 0; {
		d := gen.Next()
		p.frames = append(p.frames, d)
		n += len(d)
	}
	return p
}

func (p *pool) take(n int) [][]byte {
	b := p.frames[p.next : p.next+n]
	p.next += n
	if p.next == len(p.frames) {
		p.next = 0
	}
	return b
}

var errMismatch = errors.New("delivered datagram differs from the one offered")

// matches is the check of one datagram: length and IPv4 ID in the timed
// loop, protocol and every octet in a verification pass (full).
func matches(proto uint16, got, want []byte, full bool) bool {
	if full {
		return proto == gigapos.ProtoIPv4 && bytes.Equal(got, want)
	}
	return len(got) == len(want) && got[4] == want[4] && got[5] == want[5]
}

// check compares the drained datagrams with the batch offered, in order,
// and returns the payload octets.
func check(rx []gigapos.Datagram, want [][]byte, full bool) (int, error) {
	if len(rx) != len(want) {
		return 0, fmt.Errorf("drained %d datagrams, offered %d", len(rx), len(want))
	}
	n := 0
	for i := range rx {
		if !matches(rx[i].Protocol, rx[i].Payload, want[i], full) {
			return 0, fmt.Errorf("datagram %d: %w", i, errMismatch)
		}
		n += len(want[i])
	}
	return n, nil
}

// bringUp negotiates an in-process pair to IP-ready, exchanging wire
// octets once per virtual tick, and returns the ticks it took.
func bringUp(a, z *gigapos.Link) (int, error) {
	a.Open()
	a.Up()
	z.Open()
	z.Up()
	for now := 1; now <= 1000; now++ {
		a.Advance(int64(now))
		z.Advance(int64(now))
		z.Input(a.Output())
		a.Input(z.Output())
		if a.IPReady() && z.IPReady() {
			return now, nil
		}
	}
	return 0, errors.New("link pair did not reach IPReady in 1000 ticks")
}

func newPair() (a, z *gigapos.Link) {
	a = gigapos.NewLink(gigapos.LinkConfig{Magic: 0xA0000001, IPAddr: [4]byte{10, 0, 0, 1}})
	z = gigapos.NewLink(gigapos.LinkConfig{Magic: 0xA0000002, IPAddr: [4]byte{10, 0, 0, 2}})
	return a, z
}

// ---- link_mtu, link_min40, link_escape50 ----

// linkLoad is a negotiated Link pair in one process:
// SendIPv4Batch → Output → Input → ReceivedInto.
type linkLoad struct {
	a, z  *gigapos.Link
	pool  *pool
	batch int
	rx    []gigapos.Datagram
}

func setupLink(cfg config, size int, density float64, batch int) (workload, setupInfo, error) {
	t0 := time.Now()
	w := &linkLoad{pool: newPool(cfg.seed, netsim.Fixed(size), density, cfg.poolOctets, batch), batch: batch}
	info := setupInfo{genS: time.Since(t0).Seconds()}
	w.a, w.z = newPair()
	var err error
	info.bringupTicks, err = bringUp(w.a, w.z)
	return w, info, err
}

func (w *linkLoad) step(tr *tracer) (int, int, int, error) {
	b := w.pool.take(w.batch)
	tr.begin()
	if _, err := w.a.SendIPv4Batch(b); err != nil {
		return 0, 0, 0, err
	}
	wire := w.a.Output()
	tr.mark(spanLinkSend)
	w.z.Input(wire)
	tr.mark(spanLinkInput)
	w.rx = w.z.ReceivedInto(w.rx[:0])
	tr.mark(spanLinkDrain)
	n, err := check(w.rx, b, false)
	tr.mark(spanVerify)
	tr.end()
	return len(b), n, 0, err
}

func (w *linkLoad) verify() (verdict, error) {
	var v verdict
	w.pool.next = 0
	errs := w.z.RxErrors
	for range len(w.pool.frames) / w.batch {
		b := w.pool.take(w.batch)
		if _, err := w.a.SendIPv4Batch(b); err != nil {
			return v, err
		}
		wire := w.a.Output()
		w.z.Input(wire)
		w.rx = w.z.ReceivedInto(w.rx[:0])
		v.offered += len(b)
		n, err := check(w.rx, b, true)
		if err != nil {
			return v, err
		}
		v.delivered += len(b)
		v.line += float64(len(wire))
		v.payload += float64(n)
	}
	if w.z.RxErrors != errs {
		return v, fmt.Errorf("link counted %d damaged frames", w.z.RxErrors-errs)
	}
	return v, nil
}

func (w *linkLoad) latency() (time.Duration, error) {
	b := w.pool.take(w.batch)[:1]
	t0 := time.Now()
	if err := w.a.SendIPv4(b[0]); err != nil {
		return 0, err
	}
	w.z.Input(w.a.Output())
	w.rx = w.z.ReceivedInto(w.rx[:0])
	d := time.Since(t0)
	_, err := check(w.rx, b, true)
	return d, err
}

func (w *linkLoad) layers(m map[string]float64, tc *traceCtx) error {
	if err := checkReplay(w.a, w.z, w.pool.frames[:w.batch]); err != nil {
		return err
	}
	tc.linkSelf(m)
	m["link.rx_errors"] = float64(w.z.RxErrors)
	return nil
}

func (w *linkLoad) replayInput() ([][]byte, int) { return w.pool.frames, w.batch }

func (w *linkLoad) close() {}

// ---- sonet_imix ----

// sonetGranule is how many IMIX datagrams are queued at a time while
// filling one STM-16 payload.
const sonetGranule = 16

// sonetLoad carries IMIX through Link → sonet.Framer STM-16 →
// sonet.Deframer → Link. A step builds exactly one transport frame, and
// only once a full payload of line octets is queued; the residue carries
// over, so the framer inserts no fill while traffic flows and every step
// delivers one frame's worth of datagrams.
type sonetLoad struct {
	a, z *gigapos.Link
	pool *pool
	fr   *sonet.Framer
	df   *sonet.Deframer
	rx   []gigapos.Datagram

	queue   []byte // HDLC octets waiting for a transport frame
	qpos    int
	pulls   int    // octets the framer has asked for, fill included
	payload int    // octets the framer pulls per transport frame
	rxBytes []byte // octets the deframer recovered from the current frame
	expect  int    // pool index of the next datagram due at the peer

	tracedSTM  int    // transport frames built under the tracer
	tracedFill uint64 // fill octets the framer inserted in them
}

func setupSonet(cfg config) (workload, setupInfo, error) {
	t0 := time.Now()
	w := &sonetLoad{pool: newPool(cfg.seed, netsim.IMIX{}, 0.02, cfg.poolOctets, sonetGranule)}
	info := setupInfo{genS: time.Since(t0).Seconds()}
	w.a, w.z = newPair()
	w.fr = sonet.NewFramer(sonet.STM16, func() (byte, bool) {
		w.pulls++
		if w.qpos < len(w.queue) {
			w.qpos++
			return w.queue[w.qpos-1], true
		}
		return 0, false
	})
	w.df = sonet.NewDeframer(sonet.STM16, func(b byte) { w.rxBytes = append(w.rxBytes, b) })
	var err error
	if info.bringupTicks, err = bringUp(w.a, w.z); err != nil {
		return nil, info, err
	}
	// One idle frame aligns the deframer and shows how many octets the
	// framer really pulls per frame (it carries one path-overhead column,
	// so more than Level.PayloadBytes says).
	w.carry(nil)
	w.payload = w.pulls
	return w, info, nil
}

// enqueue offers one granule and queues its wire octets for the framer.
func (w *sonetLoad) enqueue() (int, error) {
	if _, err := w.a.SendIPv4Batch(w.pool.take(sonetGranule)); err != nil {
		return 0, err
	}
	wire := w.a.Output()
	if w.qpos > 0 {
		w.queue = w.queue[:copy(w.queue, w.queue[w.qpos:])]
		w.qpos = 0
	}
	w.queue = append(w.queue, wire...)
	return len(wire), nil
}

// carry builds one transport frame, deframes it, hands the recovered
// octets to the peer link and drains it.
func (w *sonetLoad) carry(tr *tracer) {
	frame := w.fr.NextFrame()
	tr.mark(spanSonetMap)
	w.rxBytes = w.rxBytes[:0]
	w.df.Feed(frame)
	tr.mark(spanSonetDemap)
	w.z.Input(w.rxBytes)
	tr.mark(spanLinkInput)
	w.rx = w.z.ReceivedInto(w.rx[:0])
	tr.mark(spanLinkDrain)
}

// check compares what carry drained with the pool, in offer order.
func (w *sonetLoad) check(full bool) (int, error) {
	n := 0
	for i := range w.rx {
		got, want := w.rx[i].Payload, w.pool.frames[w.expect]
		if w.expect++; w.expect == len(w.pool.frames) {
			w.expect = 0
		}
		if !matches(w.rx[i].Protocol, got, want, full) {
			return 0, fmt.Errorf("datagram %d: %w", i, errMismatch)
		}
		n += len(got)
	}
	return n, nil
}

func (w *sonetLoad) step(tr *tracer) (int, int, int, error) {
	tr.begin()
	for len(w.queue)-w.qpos < w.payload {
		if _, err := w.enqueue(); err != nil {
			return 0, 0, 0, err
		}
	}
	tr.mark(spanLinkSend)
	fill := w.fr.FillOctets
	w.carry(tr)
	if tr != nil {
		w.tracedSTM++
		w.tracedFill += w.fr.FillOctets - fill
	}
	n, err := w.check(false)
	tr.mark(spanVerify)
	tr.end()
	return len(w.rx), n, 0, err
}

// flush carries the queued residue to the peer (the framer pads the last
// frame with flag fill), comparing every datagram byte-for-byte, and
// rewinds the pool: the line is then empty and the next offer is
// datagram 0.
func (w *sonetLoad) flush() (int, error) {
	delivered := 0
	for w.qpos < len(w.queue) {
		w.carry(nil)
		if _, err := w.check(true); err != nil {
			return delivered, err
		}
		delivered += len(w.rx)
	}
	if w.expect != w.pool.next {
		return delivered, fmt.Errorf("line is empty but datagrams %d..%d never arrived", w.expect, w.pool.next)
	}
	w.queue, w.qpos = w.queue[:0], 0
	w.pool.next, w.expect = 0, 0
	return delivered, nil
}

func (w *sonetLoad) verify() (verdict, error) {
	var v verdict
	if _, err := w.flush(); err != nil {
		return v, err
	}
	errs := w.z.RxErrors
	var hdlcOctets float64
	for v.offered < len(w.pool.frames) {
		n, err := w.enqueue()
		if err != nil {
			return v, err
		}
		hdlcOctets += float64(n)
		v.offered += sonetGranule
	}
	for _, d := range w.pool.frames {
		v.payload += float64(len(d))
	}
	var err error
	if v.delivered, err = w.flush(); err != nil {
		return v, err
	}
	if w.z.RxErrors != errs {
		return v, fmt.Errorf("link counted %d damaged frames", w.z.RxErrors-errs)
	}
	if w.df.B1Errors+w.df.B2Errors+w.df.B3Errors != 0 {
		return v, errors.New("deframer counted parity errors on a clean line")
	}
	// Line octets are the STM-16 octets the stream occupies at full fill,
	// so the figure does not depend on how full the pass's last frame
	// happened to be.
	v.line = hdlcOctets * float64(sonet.STM16.FrameBytes()) / float64(w.payload)
	return v, nil
}

func (w *sonetLoad) latency() (time.Duration, error) {
	if _, err := w.flush(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := w.a.SendIPv4(w.pool.frames[0]); err != nil {
		return 0, err
	}
	w.queue = append(w.queue, w.a.Output()...)
	w.carry(nil)
	d := time.Since(t0)
	w.pool.next = 1 // one datagram offered: what flush holds the peer to
	if len(w.rx) != 1 {
		return d, fmt.Errorf("drained %d datagrams, offered 1", len(w.rx))
	}
	if _, err := w.check(true); err != nil {
		return d, err
	}
	_, err := w.flush()
	return d, err
}

func (w *sonetLoad) layers(m map[string]float64, tc *traceCtx) error {
	if _, err := w.flush(); err != nil {
		return err
	}
	if err := checkReplay(w.a, w.z, w.pool.frames[:sonetGranule]); err != nil {
		return err
	}
	tc.linkSelf(m)
	m["link.rx_errors"] = float64(w.z.RxErrors)

	if w.tracedSTM > 0 {
		lineOctets := float64(w.tracedSTM * sonet.STM16.FrameBytes())
		m["sonet.map_ns_per_line_byte"] = float64(tc.self[spanSonetMap]) / lineOctets
		m["sonet.demap_ns_per_line_byte"] = float64(tc.self[spanSonetDemap]) / lineOctets
		m["sonet.fill_share"] = float64(w.tracedFill) / float64(w.tracedSTM*w.payload)
	}
	m["sonet.overhead_share"] = 1 - float64(w.payload)/float64(sonet.STM16.FrameBytes())

	// Allocation across map+demap alone: a short pass with nothing else
	// between the two MemStats reads.
	const frames = 8
	for len(w.queue) < frames*w.payload {
		if _, err := w.enqueue(); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range frames {
		w.rxBytes = w.rxBytes[:0]
		w.df.Feed(w.fr.NextFrame())
	}
	runtime.ReadMemStats(&after)
	m["sonet.alloc_bytes_per_stm_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / frames
	return nil
}

func (w *sonetLoad) replayInput() ([][]byte, int) { return w.pool.frames, sonetGranule }

func (w *sonetLoad) close() {}

// ---- udp_window ----

const (
	udpWindow = 32
	// udpTimeout is long on purpose: the loop is closed, so a timeout is
	// a lost window either way, and a short one counts host stalls as
	// loss.
	udpTimeout = 5 * time.Second
)

// udpLoad runs supervised TransportPorts over a real UDP socket pair on
// 127.0.0.1 (the host loopback, not a link): a window of frames is
// sent, then both ports are polled until the whole window is drained at
// the peer.
type udpLoad struct {
	ta, tz *transport.UDP
	a, z   *gigapos.TransportPort
	pool   *pool
	rx     []gigapos.Datagram
	now    int64

	// Counted under the tracer only.
	polls, emptyPolls    int
	txChunks, txBytes    uint64
	txDropped, rxDropped uint64
}

func setupUDP(cfg config) (workload, setupInfo, error) {
	t0 := time.Now()
	w := &udpLoad{pool: newPool(cfg.seed, netsim.Fixed(1500), 0.02, cfg.poolOctets, udpWindow)}
	info := setupInfo{genS: time.Since(t0).Seconds()}
	var err error
	if w.ta, err = transport.NewUDP(transport.UDPConfig{ListenAddr: "127.0.0.1:0"}); err != nil {
		return nil, info, err
	}
	if w.tz, err = transport.NewUDP(transport.UDPConfig{DialAddr: w.ta.LocalAddr().String()}); err != nil {
		w.ta.Close()
		return nil, info, err
	}
	// RestartPeriod must exceed the socket round trip in virtual ticks,
	// or every Configure-Ack arrives after its request timed out.
	link := func(magic uint32, host byte) *gigapos.Link {
		l := gigapos.NewLink(gigapos.LinkConfig{
			Magic: magic, IPAddr: [4]byte{10, 9, 0, host},
			Supervise: true, RetryMin: 8, RetryMax: 64, RestartPeriod: 24,
		})
		l.Open()
		l.Up()
		return l
	}
	w.a = gigapos.NewTransportPort(link(0xA0000001, 1), w.ta)
	w.z = gigapos.NewTransportPort(link(0xA0000002, 2), w.tz)
	deadline := time.Now().Add(15 * time.Second)
	for !(w.a.Link.IPReady() && w.z.Link.IPReady()) {
		if time.Now().After(deadline) {
			w.close()
			return nil, info, errors.New("links did not reach IPReady over UDP in 15 s")
		}
		w.now++
		w.a.Tick(w.now)
		w.z.Tick(w.now)
		time.Sleep(50 * time.Microsecond)
	}
	info.bringupTicks = int(w.now)
	return w, info, nil
}

// window sends b and polls until it is drained at the peer; full selects
// the byte-for-byte check. Drained datagrams are checked at once: their
// payloads are recycled by the second-following drain. It returns the
// datagrams delivered; fewer than len(b) means the window timed out.
func (w *udpLoad) window(tr *tracer, b [][]byte, full bool) (int, error) {
	w.now++
	w.a.Link.Advance(w.now)
	w.z.Link.Advance(w.now)
	var tx0, rx0 transport.Stats
	if tr != nil {
		tx0, rx0 = w.ta.Stats(), w.tz.Stats()
	}
	tr.begin()
	if _, err := w.a.Link.SendIPv4Batch(b); err != nil {
		return 0, err
	}
	tr.mark(spanLinkSend)
	w.a.Flush()
	tr.mark(spanFlush)
	got := 0
	start := time.Now()
	for idle := 0; got < len(b); {
		w.a.Poll(w.now)
		n := w.z.Poll(w.now)
		w.z.Flush()
		if tr != nil {
			w.polls++
		}
		if n == 0 {
			if tr != nil {
				w.emptyPolls++
			}
			tr.mark(spanWait)
			// Let the socket reader goroutines run even on one core.
			runtime.Gosched()
			if idle++; idle&0xFF == 0 && time.Since(start) > udpTimeout {
				w.resync()
				break
			}
			continue
		}
		tr.mark(spanPoll)
		w.rx = w.z.Link.ReceivedInto(w.rx[:0])
		tr.mark(spanLinkDrain)
		if got+len(w.rx) > len(b) {
			return got, fmt.Errorf("drained %d datagrams of a window of %d", got+len(w.rx), len(b))
		}
		if _, err := check(w.rx, b[got:got+len(w.rx)], full); err != nil {
			return got, err
		}
		got += len(w.rx)
		tr.mark(spanVerify)
	}
	tr.end()
	if tr != nil {
		tx1, rx1 := w.ta.Stats(), w.tz.Stats()
		w.txChunks += tx1.TxChunks - tx0.TxChunks
		w.txBytes += tx1.TxBytes - tx0.TxBytes
		w.txDropped += tx1.TxDropped - tx0.TxDropped
		w.rxDropped += rx1.RxDropped - rx0.RxDropped
	}
	return got, nil
}

// resync discards whatever is still in flight after a timed-out window,
// so the next window starts on a quiet line. The loss is reported, not
// fatal: this is the one workload whose line can drop.
func (w *udpLoad) resync() {
	for quiet := time.Now(); time.Since(quiet) < 50*time.Millisecond; {
		w.a.Poll(w.now)
		if w.z.Poll(w.now) > 0 {
			quiet = time.Now()
		}
		w.rx = w.z.Link.ReceivedInto(w.rx[:0])
		runtime.Gosched()
	}
}

func (w *udpLoad) step(tr *tracer) (int, int, int, error) {
	b := w.pool.take(udpWindow)
	got, err := w.window(tr, b, false)
	return got, got * 1500, len(b) - got, err
}

func (w *udpLoad) verify() (verdict, error) {
	var v verdict
	w.pool.next = 0
	before := w.a.TxLineBytes
	for range len(w.pool.frames) / udpWindow {
		b := w.pool.take(udpWindow)
		got, err := w.window(nil, b, true)
		v.offered += len(b)
		v.delivered += got
		if err != nil {
			return v, err
		}
		v.payload += float64(got * 1500)
	}
	v.line = float64(w.a.TxLineBytes - before)
	return v, nil
}

func (w *udpLoad) latency() (time.Duration, error) {
	b := w.pool.take(udpWindow)[:1]
	t0 := time.Now()
	got, err := w.window(nil, b, true)
	d := time.Since(t0)
	if err == nil && got != 1 {
		err = errors.New("latency probe frame timed out")
	}
	return d, err
}

func (w *udpLoad) layers(m map[string]float64, tc *traceCtx) error {
	enc, _, _ := tc.lad.perFrame()
	m["link.rx_errors"] = float64(w.z.Link.RxErrors)
	// Input runs inside TransportPort.Poll here, so it has no span of its
	// own: transport.poll carries it.
	m["link.send_ns_per_frame"] = tc.perFrame[spanLinkSend]
	m["link.drain_ns_per_frame"] = tc.perFrame[spanLinkDrain]
	m["link.tx_self_ns_per_frame"] = tc.perFrame[spanLinkSend] - enc
	if w.txChunks > 0 {
		m["transport.flush_ns_per_chunk"] = float64(tc.self[spanFlush]) / float64(w.txChunks)
		m["transport.bytes_per_chunk"] = float64(w.txBytes) / float64(w.txChunks)
	}
	if productive := w.polls - w.emptyPolls; productive > 0 {
		m["transport.poll_ns_per_call"] = float64(tc.self[spanPoll]) / float64(productive)
		m["transport.empty_poll_share"] = float64(w.emptyPolls) / float64(w.polls)
	}
	if tc.batches > 0 {
		m["transport.wait_ns_per_window"] = float64(tc.self[spanWait]) / float64(tc.batches)
	}
	rtts := durations(tc.spans, spanBatch)
	m["transport.window_rtt_p50_us"] = percentile(rtts, 50) / 1e3
	m["transport.window_rtt_p99_us"] = percentile(rtts, 99) / 1e3
	m["transport.tx_dropped"] = float64(w.txDropped)
	m["transport.rx_dropped"] = float64(w.rxDropped)
	m["transport.queue_high_water"] = float64(w.ta.Stats().QueueHighWater)
	return nil
}

func (w *udpLoad) replayInput() ([][]byte, int) { return w.pool.frames, udpWindow }

func (w *udpLoad) close() {
	w.ta.Close()
	w.tz.Close()
}

// ---- engine_pipe ----

const (
	engineLinks   = 8
	enginePayload = 512
	engineBatch   = 8
	engineRun     = 8 // engine steps per harness batch
	// engineFrames is what one engine step must deliver: both
	// directions of every link.
	engineFrames = engineLinks * 2 * engineBatch
)

// engineLoad is the line-card engine over in-process pipes. The engine
// generates and drains its own fixed payload (the seed does not reach
// it), so the harness checks what the engine exposes: delivered count,
// payload octets, RxErrors.
type engineLoad struct {
	e *gigapos.Engine
}

func newEngine(shards int, pipes bool) (*gigapos.Engine, int, error) {
	cfg := gigapos.EngineConfig{Links: engineLinks, Shards: shards, PayloadSize: enginePayload, Batch: engineBatch}
	if pipes {
		cfg.Transport = func(int) (a, z transport.LineTransport) { return transport.NewPipePair() }
	}
	e := gigapos.NewEngine(cfg)
	res := e.BringUp(1024)
	if !res.Ready {
		e.Close()
		return nil, 0, fmt.Errorf("engine bring-up: %s", res)
	}
	e.Run(32) // reach steady-state buffer capacities
	return e, res.Steps, nil
}

func setupEngine(config) (workload, setupInfo, error) {
	e, ticks, err := newEngine(1, true)
	if err != nil {
		return nil, setupInfo{}, err
	}
	return &engineLoad{e: e}, setupInfo{bringupTicks: ticks}, nil
}

// runChecked runs n engine steps and asserts the deliveries.
func runChecked(e *gigapos.Engine, tr *tracer, n int) (verdict, error) {
	before := e.Stats()
	tr.begin()
	e.Run(n)
	tr.mark(spanEngineRun)
	st := e.Stats()
	v := verdict{
		offered:   n * engineFrames,
		delivered: int(st.Datagrams - before.Datagrams),
		payload:   float64(st.PayloadBytes - before.PayloadBytes),
		line:      float64(st.LineBytes - before.LineBytes),
	}
	var err error
	switch {
	case st.RxErrors != 0:
		err = fmt.Errorf("engine counted %d damaged frames", st.RxErrors)
	case v.delivered != v.offered || v.payload != float64(v.delivered*enginePayload):
		err = fmt.Errorf("engine delivered %d frames / %.0f octets in %d steps, want %d frames of %d",
			v.delivered, v.payload, n, v.offered, enginePayload)
	}
	tr.mark(spanVerify)
	tr.end()
	return v, err
}

func (w *engineLoad) step(tr *tracer) (int, int, int, error) {
	v, err := runChecked(w.e, tr, engineRun)
	return v.delivered, int(v.payload), 0, err
}

func (w *engineLoad) verify() (verdict, error) { return runChecked(w.e, nil, engineRun) }

// latency is one engine step, the engine's unit of delivery.
func (w *engineLoad) latency() (time.Duration, error) {
	t0 := time.Now()
	_, err := runChecked(w.e, nil, 1)
	return time.Since(t0), err
}

// replayInput rebuilds the engine's payload template (engine.go) as a
// full pool, every entry the one template as in the engine, so a ladder
// cycle is long enough to time. layers holds the copy to the original.
func (w *engineLoad) replayInput() ([][]byte, int) {
	payload := make([]byte, enginePayload)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frames := make([][]byte, (1<<20)/enginePayload)
	for i := range frames {
		frames[i] = payload
	}
	return frames, engineBatch
}

func (w *engineLoad) layers(m map[string]float64, tc *traceCtx) error {
	frames := tc.lad.frames[:engineBatch]
	v, err := runChecked(w.e, nil, 1)
	if err != nil {
		return err
	}
	if want := float64(2 * engineLinks * len(encodeBatch(nil, frames))); v.line != want {
		return fmt.Errorf("engine step moved %.0f line octets, the replayed payload encodes to %.0f", v.line, want)
	}

	stepNS := tc.perFrame[spanEngineRun] * engineFrames
	m["engine.step_ns"] = stepNS
	m["engine.frames_per_step"] = float64(tc.frames) / float64(tc.batches*engineRun)

	replay, err := replayLink(frames, tc.cfg)
	if err != nil {
		return err
	}
	enc, tok, dec := tc.lad.perFrame()
	m["link.send_ns_per_frame"] = replay.send
	m["link.input_ns_per_frame"] = replay.input
	m["link.drain_ns_per_frame"] = replay.drain
	m["link.tx_self_ns_per_frame"] = replay.send - enc
	m["link.rx_self_ns_per_frame"] = replay.input - tok - dec
	m["engine.self_ns_per_frame"] = stepNS/engineFrames - (replay.send + replay.input + replay.drain)

	// The two variants are timed in alternation with the engine under
	// test, batch by batch, so each pair sees the same host states.
	direct, _, err := newEngine(1, false)
	if err != nil {
		return err
	}
	defer direct.Close()
	pipeNS, directNS, err := alternate(w.e, direct, tc.cfg.replay)
	if err != nil {
		return err
	}
	// The pair's ratio, applied to the step the spans measured: the pair
	// ran after the rounds, possibly on a host in another state.
	m["engine.direct_step_ns"] = stepNS * directNS / pipeNS
	m["transport.pipe_ns_per_frame"] = stepNS * (1 - directNS/pipeNS) / engineFrames
	// Informational: two shards on two shared cores measure the
	// scheduler as much as the engine.
	two, _, err := newEngine(2, true)
	if err != nil {
		return err
	}
	defer two.Close()
	oneNS, twoNS, err := alternate(w.e, two, tc.cfg.replay)
	if err != nil {
		return err
	}
	m["engine.shard_speedup_2"] = oneNS / twoNS
	return nil
}

// alternate runs checked batches on a and b in turn for 2*d and returns
// the ns per engine step of each one's fastest batch.
func alternate(a, b *gigapos.Engine, d time.Duration) (aNS, bNS float64, err error) {
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for n, end := 0, time.Now().Add(2*d); n < 6 || time.Now().Before(end); n++ {
		e := [2]*gigapos.Engine{a, b}[n%2]
		t0 := time.Now()
		if _, err := runChecked(e, nil, engineRun); err != nil {
			return 0, 0, err
		}
		best[n%2] = min(best[n%2], float64(time.Since(t0))/engineRun)
	}
	return best[0], best[1], nil
}

func (w *engineLoad) close() { w.e.Close() }

// ---- rtl_p5_32 ----

const (
	rtlBatch  = 20
	rtlBudget = 10_000_000 // cycles RunUntilIdle may spend on one batch
)

// rtlLoad is the cycle-accurate 32-bit P5 in loopback:
// Send → RunUntilIdle → ReceivedInto.
type rtlLoad struct {
	sys  *p5.System
	pool *pool
	rx   []p5.RxFrame

	tracedCycles int64 // simulated cycles spent under the tracer
}

func setupRTL(cfg config) (workload, setupInfo, error) {
	t0 := time.Now()
	w := &rtlLoad{pool: newPool(cfg.seed, netsim.Fixed(1500), 0.02, cfg.poolOctets, rtlBatch)}
	info := setupInfo{genS: time.Since(t0).Seconds()}
	w.sys = p5.NewSystem(4)
	return w, info, nil
}

// run sends b through the system and drains it into w.rx; full selects
// the byte-for-byte check of every payload and FCS verdict.
func (w *rtlLoad) run(tr *tracer, b [][]byte, full bool) (int, error) {
	for _, d := range b {
		w.sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	tr.mark(spanP5Send)
	if !w.sys.RunUntilIdle(rtlBudget) {
		return 0, errors.New("P5 system did not drain")
	}
	tr.mark(spanP5Run)
	w.rx = w.sys.ReceivedInto(w.rx[:0])
	tr.mark(spanP5Drain)
	if len(w.rx) != len(b) {
		return 0, fmt.Errorf("P5 received %d frames, sent %d", len(w.rx), len(b))
	}
	n := 0
	for i, f := range w.rx {
		if f.Err != nil {
			return 0, fmt.Errorf("frame %d: %w", i, f.Err)
		}
		if !matches(f.Frame.Protocol, f.Frame.Payload, b[i], full) {
			return 0, fmt.Errorf("frame %d: %w", i, errMismatch)
		}
		n += len(b[i])
	}
	tr.mark(spanVerify)
	return n, nil
}

func (w *rtlLoad) step(tr *tracer) (int, int, int, error) {
	b := w.pool.take(rtlBatch)
	cycle := w.sys.Sim.Now()
	tr.begin()
	n, err := w.run(tr, b, false)
	tr.end()
	if tr != nil {
		w.tracedCycles += w.sys.Sim.Now() - cycle
	}
	return len(b), n, 0, err
}

func (w *rtlLoad) verify() (verdict, error) {
	var v verdict
	w.pool.next = 0
	words := w.sys.Line.Words
	for range len(w.pool.frames) / rtlBatch {
		b := w.pool.take(rtlBatch)
		v.offered += len(b)
		n, err := w.run(nil, b, true)
		if err != nil {
			return v, err
		}
		v.delivered += len(b)
		v.payload += float64(n)
	}
	v.line = float64(w.sys.Line.Words-words) * float64(w.sys.W)
	return v, nil
}

func (w *rtlLoad) latency() (time.Duration, error) {
	b := w.pool.take(rtlBatch)[:1]
	t0 := time.Now()
	_, err := w.run(nil, b, true)
	return time.Since(t0), err
}

func (w *rtlLoad) layers(m map[string]float64, tc *traceCtx) error {
	if w.tracedCycles > 0 {
		m["p5.host_ns_per_cycle"] = float64(tc.self[spanP5Send]+tc.self[spanP5Run]+tc.self[spanP5Drain]) / float64(w.tracedCycles)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const batches = 5
	for range batches {
		if _, _, _, err := w.step(nil); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["p5.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / (batches * rtlBatch)

	// Simulated counts on a fresh system, so they depend on the seed and
	// the modelled design and on nothing the run did before. First one
	// 1500-octet frame on the idle system: cycles from Send until it is
	// in the receive queue.
	fresh := &rtlLoad{sys: p5.NewSystem(4), pool: &pool{frames: w.pool.frames}}
	start := fresh.sys.Sim.Now()
	fresh.sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: fresh.pool.frames[0]})
	for len(fresh.sys.Rx.Control.Queue) == 0 {
		if fresh.sys.Sim.Now()-start > rtlBudget {
			return errors.New("P5 system never delivered the latency frame")
		}
		fresh.sys.Cycle()
	}
	m["p5.frame_latency_cycles"] = float64(fresh.sys.Sim.Now() - start)
	m["p5.fill_latency_cycles"] = float64(fresh.sys.FillLatency)
	fresh.sys.RunUntilIdle(rtlBudget)
	fresh.sys.ReceivedInto(nil)

	// Then one exact pool cycle.
	start = fresh.sys.Sim.Now()
	v, err := fresh.verify()
	if err != nil {
		return err
	}
	cycles := float64(fresh.sys.Sim.Now() - start)
	m["p5.bits_per_cycle"] = v.payload * 8 / cycles
	m["p5.cycles_per_frame"] = cycles / float64(v.delivered)
	m["p5.escgen_high_water"] = float64(fresh.sys.Tx.Escape.HighWater())
	m["p5.escdet_high_water"] = float64(fresh.sys.Rx.Escape.HighWater())
	return nil
}

// replayInput: the software codecs on the same pool are the reference the
// model is wire-compatible with.
func (w *rtlLoad) replayInput() ([][]byte, int) { return w.pool.frames, rtlBatch }

func (w *rtlLoad) close() {}
