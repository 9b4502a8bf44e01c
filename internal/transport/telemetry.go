package transport

import "repro/internal/telemetry"

// Instrument registers the transport_* series for t under the line
// label and keeps them refreshed at scrape time via the registry's
// sampler hook. Counters are sync-mirrors of the transport's Stats
// snapshot — the same pattern the engine uses for link counters. When
// t measures latency (LatencyMeter) the one-way/jitter/RTT histograms
// are adopted into the registry directly — they are already atomic, so
// no mirroring is needed — alongside the clock/tick offset gauges.
func Instrument(reg *telemetry.Registry, line string, t LineTransport) {
	l := telemetry.L("line", line)
	up := reg.Gauge("transport_up", "transport link liveness (1 = peer alive)", l)
	reconnects := reg.Counter("transport_reconnects_total", "peer reconnections observed", l)
	resets := reg.Counter("transport_resets_total", "connection resets (dead peer, stream desync, write failure)", l)
	kaProbes := reg.Counter("transport_keepalive_probes_total", "keepalive probes sent", l)
	kaMisses := reg.Counter("transport_keepalive_misses_total", "keepalive periods with no traffic from the peer", l)
	txChunks := reg.Counter("transport_tx_chunks_total", "data records written to the line", l)
	txBytes := reg.Counter("transport_tx_bytes_total", "payload octets of the data records written to the line", l)
	rxChunks := reg.Counter("transport_rx_chunks_total", "wire chunks accepted from the line", l)
	rxBytes := reg.Counter("transport_rx_bytes_total", "payload octets accepted from the line", l)
	txDropped := reg.Counter("transport_tx_dropped_total", "chunks dropped before the wire (queue overflow, write errors)", l)
	rxDropped := reg.Counter("transport_rx_dropped_total", "chunks rejected on receive (bad header, duplicate, reordered)", l)
	rxBadVer := reg.Counter("transport_rx_bad_version_total", "arrivals rejected for a wire-version mismatch (version skew)", l)
	depth := reg.Gauge("transport_queue_depth", "send queue depth at last scrape", l)
	highWater := reg.Gauge("transport_queue_high_water", "send queue high-water mark", l)
	reg.AddSampler(func() {
		st := t.Stats()
		if t.Up() {
			up.Set(1)
		} else {
			up.Set(0)
		}
		reconnects.Set(st.Reconnects)
		resets.Set(st.Resets)
		kaProbes.Set(st.KeepaliveProbes)
		kaMisses.Set(st.KeepaliveMisses)
		txChunks.Set(st.TxChunks)
		txBytes.Set(st.TxBytes)
		rxChunks.Set(st.RxChunks)
		rxBytes.Set(st.RxBytes)
		txDropped.Set(st.TxDropped)
		rxDropped.Set(st.RxDropped)
		rxBadVer.Set(st.RxBadVersion)
		depth.Set(int64(st.QueueDepth))
		highWater.Set(int64(st.QueueHighWater))
	})
	lm, ok := t.(LatencyMeter)
	if !ok {
		return
	}
	oneWay, jitter, rtt := lm.LatencyHist()
	if oneWay == nil {
		// A wrapper (fault.Transport) around a non-measuring inner
		// transport satisfies the interface but carries no meter.
		return
	}
	reg.AttachHistogram("transport_oneway_latency_us", "one-way delay from peer wall stamps, µs", oneWay, l)
	reg.AttachHistogram("transport_oneway_jitter_us", "successive one-way delay deltas, µs", jitter, l)
	reg.AttachHistogram("transport_rtt_us", "keepalive probe round-trip time, µs", rtt, l)
	clockOff := reg.Gauge("transport_clock_offset_ns", "estimated peer-minus-local wall clock offset, ns", l)
	tickOff := reg.Gauge("transport_tick_offset", "estimated peer-minus-local virtual tick offset (lower bound)", l)
	reg.Gauge("transport_wire_version", "P5LT wire header version this endpoint speaks", l).Set(wireVersion)
	reg.AddSampler(func() {
		lat := lm.Latency()
		clockOff.Set(lat.ClockOffsetNS)
		tickOff.Set(lat.TickOffset)
	})
}
