package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark emits. exact marks a count
// or ratio that repeats bit-for-bit for a given seed, so -compare and
// the smoke test demand equality instead of a tolerance.
type metricDef struct {
	name, unit string
	exact      bool
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{
	"link_mtu", "link_min40", "link_escape50", "sonet_imix",
	"udp_window", "engine_pipe", "rtl_p5_32",
}

// endToEnd is what `-trace 0` reports; BENCHMARK.json carries the same
// names and units plus the regression bounds (TestSpecMatchesTables).
var endToEnd = []metricDef{
	{"goodput_mbps", "Mb/s", false},
	{"cpu_ns_per_byte", "ns/B", false},
	{"frame_latency_p50_us", "us", false},
	{"wire_efficiency", "ratio", true},
	{"heap_live_mb", "MiB", false},
	{"setup_s", "s", false},
}

// perLayer is what `-trace 1` reports. A workload reports 0 for a layer
// that is not on its path.
var perLayer = []metricDef{
	{"netsim.gen_s", "s", false},
	{"link.bringup_ticks", "ticks", false},

	{"crc.update_ns_per_byte", "ns/B", false},
	{"ppp.encode_ns_per_byte", "ns/B", false},
	{"ppp.encode_ns_per_frame", "ns/frame", false},
	{"hdlc.tokenize_ns_per_byte", "ns/B", false},
	{"hdlc.tokenize_ns_per_frame", "ns/frame", false},
	{"ppp.decode_ns_per_frame", "ns/frame", false},
	{"hdlc.escape_ratio", "ratio", true},
	{"hdlc.short_span_share", "ratio", true},
	{"hdlc.token_errors", "count", true},

	{"link.rx_errors", "count", true},
	{"link.send_ns_per_frame", "ns/frame", false},
	{"link.input_ns_per_frame", "ns/frame", false},
	{"link.drain_ns_per_frame", "ns/frame", false},
	{"link.tx_self_ns_per_frame", "ns/frame", false},
	{"link.rx_self_ns_per_frame", "ns/frame", false},

	{"sonet.map_ns_per_line_byte", "ns/B", false},
	{"sonet.demap_ns_per_line_byte", "ns/B", false},
	{"sonet.overhead_share", "ratio", true},
	{"sonet.fill_share", "ratio", true},
	{"sonet.alloc_bytes_per_stm_frame", "B/frame", false},

	{"transport.flush_ns_per_chunk", "ns/chunk", false},
	{"transport.poll_ns_per_call", "ns/call", false},
	{"transport.empty_poll_share", "ratio", false},
	{"transport.wait_ns_per_window", "ns/window", false},
	{"transport.window_rtt_p50_us", "us", false},
	{"transport.window_rtt_p99_us", "us", false},
	{"transport.bytes_per_chunk", "B/chunk", false},
	{"transport.tx_dropped", "count", false},
	{"transport.rx_dropped", "count", false},
	{"transport.queue_high_water", "count", false},
	{"transport.pipe_ns_per_frame", "ns/frame", false},

	{"engine.step_ns", "ns/step", false},
	{"engine.frames_per_step", "1/step", true},
	{"engine.self_ns_per_frame", "ns/frame", false},
	{"engine.direct_step_ns", "ns/step", false},
	{"engine.shard_speedup_2", "ratio", false},

	{"p5.host_ns_per_cycle", "ns/cycle", false},
	{"p5.bits_per_cycle", "bit/cycle", true},
	{"p5.cycles_per_frame", "cycles", true},
	{"p5.frame_latency_cycles", "cycles", true},
	{"p5.fill_latency_cycles", "cycles", true},
	{"p5.escgen_high_water", "count", true},
	{"p5.escdet_high_water", "count", true},
	{"p5.allocs_per_frame", "1/frame", false},

	{"mem.allocs_per_frame", "1/frame", false},
	{"mem.alloc_bytes_per_frame", "B/frame", false},
	{"e2e.frame_latency_p99_us", "us", false},
	{"e2e.loss_ratio", "ratio", false},

	{"harness.verify_ns_per_frame", "ns/frame", false},
	{"harness.segment_spread", "ratio", false},
	{"harness.trace_overhead_share", "ratio", false},
	{"harness.span_coverage", "ratio", false},
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json, the contract the driver and -compare read.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactMetric reports whether name repeats bit-for-bit per seed.
func exactMetric(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.exact
			}
		}
	}
	return false
}
