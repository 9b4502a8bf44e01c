package transport

import "repro/internal/telemetry"

// This file is the per-line latency meter shared by the socket
// transports: one-way delay and jitter from the sampled wall stamps on
// TypeData headers, probe RTT and NTP-style clock offset from the
// TypeKeepalive/TypeKeepaliveReply exchange, and a tick-domain offset
// estimate for correlating captures across processes. The meter is
// a field of the record session and mutated only under its
// mutex; the histograms are the telemetry package's atomic kind, so
// Instrument can expose them directly and a scrape never takes the
// transport lock.

// latencyBoundsUS are the histogram bucket upper bounds in µs, spanning
// loopback (tens of µs) out to WAN-scale (100 ms).
var latencyBoundsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// Latency is a point-in-time summary of a line's latency meter.
type Latency struct {
	// Samples counts one-way measurements (sampled data datagrams).
	Samples uint64
	// OneWayP50US / OneWayP99US summarise the one-way delay in µs.
	OneWayP50US, OneWayP99US int64
	// RTTSamples counts completed probe/reply round trips.
	RTTSamples uint64
	// RTTP50US is the median probe RTT in µs.
	RTTP50US int64
	// ClockOffsetNS is the EWMA estimate of (peer wall − local wall).
	ClockOffsetNS int64
	// TickOffset is the estimated (peer tick − local tick), a max-filter
	// lower bound; valid only once Samples or RTTSamples is nonzero.
	TickOffset int64
}

// LatencyMeter is implemented by transports that measure wire-level
// latency (UDP, TCP; the in-process Pipe does not — its delay is one
// tick by construction).
type LatencyMeter interface {
	// Latency returns the current summary.
	Latency() Latency
	// LatencyHist returns the live one-way, jitter and RTT histograms
	// (µs) for exposition via telemetry.AttachHistogram.
	LatencyHist() (oneWay, jitter, rtt *telemetry.Histogram)
}

// meter is the embedded implementation. All fields are guarded by the
// owning transport's mutex except the histograms, which are internally
// atomic.
type meter struct {
	oneWay *telemetry.Histogram // µs
	jitter *telemetry.Histogram // µs
	rtt    *telemetry.Histogram // µs

	samples    uint64
	rttSamples uint64
	lastOneWay int64 // µs, for jitter
	haveOneWay bool

	// offsetNS is the EWMA clock offset (peer − local) from the
	// keepalive exchange; offsetSet latches the first sample.
	offsetNS  int64
	offsetSet bool

	// tickOff is a max-filter over (header.Tick − local tick at
	// receive). Each sample understates the true peer−local tick delta
	// by the one-way flight time, so the maximum is the tightest lower
	// bound observed.
	tickOff    int64
	tickOffSet bool
}

func newMeter() meter {
	return meter{
		oneWay: telemetry.NewHistogram(latencyBoundsUS),
		jitter: telemetry.NewHistogram(latencyBoundsUS),
		rtt:    telemetry.NewHistogram(latencyBoundsUS),
	}
}

// stampWall reports whether the datagram with this seq should carry a
// wall stamp (1 in 2^latencySampleShift).
func (m *meter) stampWall(seq uint64) bool { return seq&(1<<latencySampleShift-1) == 0 }

// noteTick feeds the tick-domain max-filter from any valid arrival.
func (m *meter) noteTick(headerTick, localTick int64) {
	d := headerTick - localTick
	if !m.tickOffSet || d > m.tickOff {
		m.tickOff, m.tickOffSet = d, true
	}
}

// noteData records a one-way sample from a stamped data datagram.
// txWall is the header's wall stamp, nowNS the local receive wall
// clock.
func (m *meter) noteData(txWall, nowNS int64) {
	if txWall == 0 {
		return
	}
	ow := nowNS - txWall + m.offsetNS
	if ow < 0 {
		ow = 0
	}
	owUS := ow / 1000
	m.oneWay.Observe(owUS)
	if m.haveOneWay {
		j := owUS - m.lastOneWay
		if j < 0 {
			j = -j
		}
		m.jitter.Observe(j)
	}
	m.lastOneWay, m.haveOneWay = owUS, true
	m.samples++
}

// noteReply folds one completed probe exchange: t1 the probe's origin
// wall stamp, t2/t3 the peer's receive/transmit stamps, t4 the local
// wall clock when the reply arrived.
func (m *meter) noteReply(t1, t2, t3, t4 int64) {
	rtt := (t4 - t1) - (t3 - t2)
	if rtt < 0 {
		rtt = 0
	}
	m.rtt.Observe(rtt / 1000)
	m.rttSamples++
	theta := ((t2 - t1) + (t3 - t4)) / 2
	if !m.offsetSet {
		m.offsetNS, m.offsetSet = theta, true
	} else {
		m.offsetNS += (theta - m.offsetNS) / 8
	}
}

// latency builds the summary snapshot. Callers hold the transport
// mutex for the scalar fields; the histogram reads are atomic.
func (m *meter) latency() Latency {
	return Latency{
		Samples:       m.samples,
		OneWayP50US:   m.oneWay.Quantile(0.5),
		OneWayP99US:   m.oneWay.Quantile(0.99),
		RTTSamples:    m.rttSamples,
		RTTP50US:      m.rtt.Quantile(0.5),
		ClockOffsetNS: m.offsetNS,
		TickOffset:    m.tickOff,
	}
}
