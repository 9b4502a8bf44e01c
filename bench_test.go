package gigapos

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see EXPERIMENTS.md for the paper-vs-measured
// record):
//
//	BenchmarkTable1_P5_8bit          — Table 1, 8-bit system synthesis
//	BenchmarkTable2_P5_32bit         — Table 2, 32-bit system synthesis
//	BenchmarkTable3_EscapeGenerate   — Table 3, Escape Generate module
//	BenchmarkFigure5_EscapeGenerate  — Fig 5, stuffing expansion datapath
//	BenchmarkFigure6_EscapeDetect    — Fig 6, destuffing bubble collapse
//	BenchmarkThroughput_*            — headline 2.5 Gb/s / 625 Mb/s claim
//	BenchmarkLatency_EscapePipeline  — 4-cycle (~50 ns) pipeline fill
//	BenchmarkAblation_*              — design-choice sweeps (DESIGN.md §10)
//	BenchmarkEngineAggregate         — sharded line-card scale-out (E16)
//	BenchmarkLink{Encode,Decode}Steady — zero-alloc link fast paths
//	BenchmarkLinkEncodeSteadyFlight  — same loop, flight recorder armed
//	BenchmarkLinkPair                — both directions of a Link pair across frame size
//
// Custom metrics attach the paper's quantities (LUTs, FFs, MHz, Gb/s,
// cycles) to the standard testing.B output. The loops three timing
// contracts hang on (gates_test.go) are factored into one function
// each, which the benchmark and the gate both call.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crc"
	"repro/internal/flight"
	"repro/internal/gfp"
	"repro/internal/hdlc"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/prof"
	"repro/internal/rtl"
	"repro/internal/sonet"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

var printTables sync.Once

func printAllTables() {
	printTables.Do(func() {
		fmt.Println()
		fmt.Print(synth.FormatSystemTable("Table 1 — P5 8-bit implementation",
			synth.SystemTable(1, synth.XCV50, synth.XC2V40)))
		fmt.Println()
		fmt.Print(synth.FormatSystemTable("Table 2 — P5 32-bit implementation",
			synth.SystemTable(4, synth.XCV600, synth.XC2V1000)))
		fmt.Println()
		fmt.Print(synth.FormatModuleTable(synth.XC2V40, synth.EscapeGenerateTable(synth.XC2V40)))
		r := synth.ComputeRatios()
		fmt.Printf("\nArea ratios (32-bit / 8-bit): system %.1fx LUT / %.1fx FF;"+
			" datapath %.1fx / %.1fx; escape-generate %.1fx / %.1fx (paper: 11x system, 25x/28x module)\n\n",
			r.SystemLUT, r.SystemFF, r.DatapathLUT, r.DatapathFF, r.EscapeGenLUT, r.EscapeGenFF)
	})
}

// BenchmarkTable1_P5_8bit regenerates Table 1: the 8-bit P5 on XCV50-4
// and XC2V40-6.
func BenchmarkTable1_P5_8bit(b *testing.B) {
	printAllTables()
	var rows []synth.SystemRow
	for i := 0; i < b.N; i++ {
		rows = synth.SystemTable(1, synth.XCV50, synth.XC2V40)
	}
	b.ReportMetric(float64(rows[0].LUTs), "LUTs")
	b.ReportMetric(float64(rows[0].FFs), "FFs")
	b.ReportMetric(rows[1].FMaxPost, "MHz-postlayout-V2")
	b.ReportMetric(synth.LineRateGbps(rows[1].FMaxPost, 1)*1000, "Mbps-line")
}

// BenchmarkTable2_P5_32bit regenerates Table 2: the 32-bit P5 on
// XCV600-4 and XC2V1000-6.
func BenchmarkTable2_P5_32bit(b *testing.B) {
	printAllTables()
	var rows []synth.SystemRow
	for i := 0; i < b.N; i++ {
		rows = synth.SystemTable(4, synth.XCV600, synth.XC2V1000)
	}
	b.ReportMetric(float64(rows[0].LUTs), "LUTs")
	b.ReportMetric(float64(rows[0].FFs), "FFs")
	b.ReportMetric(rows[1].FMaxPre, "MHz-prelayout-V2")
	b.ReportMetric(rows[1].FMaxPost, "MHz-postlayout-V2")
	b.ReportMetric(synth.LineRateGbps(rows[1].FMaxPost, 4), "Gbps-line")
}

// BenchmarkTable3_EscapeGenerate regenerates Table 3: the Escape
// Generate module alone, both widths, on an XC2V40-6.
func BenchmarkTable3_EscapeGenerate(b *testing.B) {
	printAllTables()
	var rows []synth.ModuleRow
	for i := 0; i < b.N; i++ {
		rows = synth.EscapeGenerateTable(synth.XC2V40)
	}
	b.ReportMetric(float64(rows[0].LUTs), "LUTs-32bit")
	b.ReportMetric(float64(rows[0].FFs), "FFs-32bit")
	b.ReportMetric(float64(rows[1].LUTs), "LUTs-8bit")
	b.ReportMetric(float64(rows[1].FFs), "FFs-8bit")
	b.ReportMetric(float64(rows[0].LUTs)/float64(rows[1].LUTs), "LUT-ratio")
	b.ReportMetric(float64(rows[0].FFs)/float64(rows[1].FFs), "FF-ratio")
}

// escGenCycles runs the cycle-accurate Escape Generate over the body
// and returns cycles consumed.
func escGenCycles(w int, body []byte) int64 {
	sim := &rtl.Sim{}
	src := &rtl.Source{Out: sim.Wire("in")}
	out := sim.Wire("out")
	gen := &p5.EscapeGen{In: src.Out, Out: out, W: w}
	sink := rtl.NewSink(out)
	sim.Add(src, gen, sink)
	src.FeedBytes(body, w)
	sim.RunUntil(func() bool {
		return src.Pending() == 0 && !gen.Busy() && sim.Drained()
	}, len(body)*8+1000)
	return sim.Now()
}

// BenchmarkFigure5_EscapeGenerate32 exercises the Figure 5 datapath:
// flag characters in arbitrary lanes of the 32-bit word, including the
// all-flags worst case.
func BenchmarkFigure5_EscapeGenerate32(b *testing.B) {
	body := bytes.Repeat([]byte{0x7E, 0x12, 0x34, 0x56}, 256) // Fig 5 word pattern
	b.SetBytes(int64(len(body)))
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles = escGenCycles(4, body)
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(len(body))/float64(cycles), "bytes/cycle")
}

// BenchmarkFigure6_EscapeDetect32 exercises the Figure 6 datapath:
// escape sequences leaving bubbles that the sorter must collapse.
func BenchmarkFigure6_EscapeDetect32(b *testing.B) {
	body := bytes.Repeat([]byte{0x7E, 0x12, 0x34, 0x56}, 256)
	line := hdlc.ReferenceEncode(nil, body, hdlc.ACCMNone, false)
	b.SetBytes(int64(len(line)))
	var cycles int64
	for i := 0; i < b.N; i++ {
		sim := &rtl.Sim{}
		src := &rtl.Source{}
		rx := p5.NewReceiver(sim, 4, p5.NewRegs())
		src.Out = rx.In
		sim.Add(src)
		src.FeedBytes(line, 4)
		sim.RunUntil(func() bool {
			return src.Pending() == 0 && !rx.Busy() && sim.Drained()
		}, len(line)*8+1000)
		cycles = sim.Now()
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(len(line))/float64(cycles), "bytes/cycle")
}

// throughputAtDensity measures sustained line throughput of the full
// loopback system at a given payload escape density, in bits per cycle;
// multiplied by the achievable clock this is the headline line rate.
func throughputAtDensity(b *testing.B, w int, density float64) (bitsPerCycle float64) {
	gen := netsim.NewGen(42, netsim.Fixed(1500), density)
	sys := p5.NewSystem(w)
	var payloadBits int64
	for i := 0; i < 20; i++ {
		d := gen.Next()
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
		payloadBits += int64(len(d)) * 8
	}
	if !sys.RunUntilIdle(10_000_000) {
		b.Fatal("system did not drain")
	}
	for _, f := range sys.Received() {
		if f.Err != nil {
			b.Fatalf("frame error: %v", f.Err)
		}
	}
	return float64(payloadBits) / float64(sys.Sim.Now())
}

// BenchmarkThroughput_32bit_CleanPayload checks the headline claim: the
// 32-bit P5 at its post-layout Virtex-II clock sustains ≈2.5 Gb/s.
func BenchmarkThroughput_32bit_CleanPayload(b *testing.B) {
	var bpc float64
	for i := 0; i < b.N; i++ {
		bpc = throughputAtDensity(b, 4, 0)
	}
	fmax := synth.VirtexII.FMaxMHz(synth.Total(synth.Inventory(4)).Depth, true)
	b.ReportMetric(bpc, "bits/cycle")
	b.ReportMetric(bpc*synth.RequiredMHz/1000, "Gbps@78MHz")
	b.ReportMetric(bpc*fmax/1000, "Gbps@fmax")
}

// BenchmarkThroughput_8bit_CleanPayload is the 625 Mb/s 8-bit headline.
func BenchmarkThroughput_8bit_CleanPayload(b *testing.B) {
	var bpc float64
	for i := 0; i < b.N; i++ {
		bpc = throughputAtDensity(b, 1, 0)
	}
	b.ReportMetric(bpc, "bits/cycle")
	b.ReportMetric(bpc*synth.RequiredMHz, "Mbps@78MHz")
}

// BenchmarkThroughput_EscapeDensitySweep sweeps payload escape density:
// stuffing expands the line stream, so goodput falls — the cost the
// backpressure scheme manages.
func BenchmarkThroughput_EscapeDensitySweep(b *testing.B) {
	for _, density := range []float64{0, 0.05, 0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("density=%.2f", density), func(b *testing.B) {
			var bpc float64
			for i := 0; i < b.N; i++ {
				bpc = throughputAtDensity(b, 4, density)
			}
			b.ReportMetric(bpc, "bits/cycle")
			b.ReportMetric(bpc*synth.RequiredMHz/1000, "Gbps@78MHz")
		})
	}
}

// BenchmarkLatency_EscapePipeline measures the 32-bit escape pipeline
// fill: the paper's 4 clock cycles ≈ 50 ns.
func BenchmarkLatency_EscapePipeline(b *testing.B) {
	var latency int64
	for i := 0; i < b.N; i++ {
		sim := &rtl.Sim{}
		src := &rtl.Source{Out: sim.Wire("in")}
		out := sim.Wire("out")
		gen := &p5.EscapeGen{In: src.Out, Out: out, W: 4}
		sink := rtl.NewSink(out)
		sim.Add(src, gen, sink)
		src.FeedBytes(bytes.Repeat([]byte{0x42}, 64), 4)
		sim.RunUntil(func() bool { return len(sink.Flits) > 0 }, 100)
		latency = sink.FirstCycle - 1 // minus the input wire register
	}
	b.ReportMetric(float64(latency), "cycles")
	b.ReportMetric(float64(latency)*1000/synth.RequiredMHz, "ns@78MHz")
}

// BenchmarkAblation_CRCWidth compares the parallel CRC matrices the
// paper cites: bits consumed per step versus LUT cost.
func BenchmarkAblation_CRCWidth(b *testing.B) {
	buf := make([]byte, 1500)
	g := netsim.NewRand(3)
	for i := range buf {
		buf[i] = g.Byte()
	}
	for _, w := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("bits=%d", w), func(b *testing.B) {
			eng := crc.NewParallel32(w)
			cost := synth.CRCUnit(w/8, crc.FCS32Mode)
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				eng.Update(crc.Init32, buf)
			}
			b.ReportMetric(float64(w), "bits/step")
			b.ReportMetric(float64(cost.LUTs), "LUTs")
		})
	}
}

// BenchmarkEndToEnd_IPoverSONET runs the complete stack of the paper's
// system context: IPv4 datagrams → PPP link → STM-16 SDH/SONET frames →
// deframer → PPP link.
func BenchmarkEndToEnd_IPoverSONET(b *testing.B) {
	gen := netsim.NewGen(9, netsim.IMIX{}, 0.02)
	datagrams := gen.Burst(64 * 1024)
	var total int64
	for _, d := range datagrams {
		total += int64(len(d))
	}
	b.SetBytes(total)
	b.ReportAllocs() // a regrown SONET frame buffer shows here
	for i := 0; i < b.N; i++ {
		a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
		z := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
		a.Open()
		z.Open()
		a.Up()
		z.Up()
		for j := 0; j < 64; j++ {
			if out := a.Output(); len(out) > 0 {
				z.Input(out)
			}
			if out := z.Output(); len(out) > 0 {
				a.Input(out)
			}
		}
		if !a.IPReady() || !z.IPReady() {
			b.Fatal("link bring-up failed")
		}
		for _, d := range datagrams {
			if err := a.SendIPv4(d); err != nil {
				b.Fatal(err)
			}
		}
		// Carry a→z over STM-16.
		la, lz := sonet.NewLinePair(sonet.STM16)
		la.Send(a.Output())
		for la.Stats().QueueDepth > 0 {
			la.Tick(0)
		}
		la.Tick(0) // flush fill
		z.InputBatch(lz.Recv(nil))
		if got := z.Received(); len(got) != len(datagrams) {
			b.Fatalf("delivered %d/%d datagrams", len(got), len(datagrams))
		}
	}
}

// BenchmarkSONETSection is the paper's titular path on one core: IMIX
// HDLC octets mapped into an STM-16 frame and demapped again, one frame
// per op. MB/s is line octets, so TestGateOC48Floor holds it to the
// line rate it models; 0 allocs/op.
func BenchmarkSONETSection(b *testing.B) { benchSteady(b, sonetSectionOp(b)) }

// sonetSectionOp is one op of BenchmarkSONETSection: a framer filling
// its rows from a cycled stream of IMIX wire octets, a deframer handing
// the rows back into one reused buffer.
func sonetSectionOp(tb testing.TB) steadyOp {
	gen := netsim.NewGen(16, netsim.IMIX{}, 0.02)
	var wire []byte
	for len(wire) < 4*sonet.STM16.PayloadBytes() {
		wire = ppp.AppendFramed(wire, []byte{0xFF, 0x03, 0x00, 0x21}, gen.Next(), crc.FCS32Mode, hdlc.ACCMNone, true)
	}
	wire = wire[:len(wire)/sonet.STM16.PayloadBytes()*sonet.STM16.PayloadBytes()]
	at := 0
	la, lz := sonet.NewLinePair(sonet.STM16)
	var rx [][]byte
	step := func() {
		la.Send(wire[at : at+sonet.STM16.PayloadBytes()])
		at = (at + sonet.STM16.PayloadBytes()) % len(wire)
		la.Tick(0)
		rx = lz.Recv(rx[:0])
		if len(rx) != 1 || len(rx[0]) != sonet.STM16.PayloadBytes() {
			tb.Fatalf("recovered %d spans, want one of %d payload octets", len(rx), sonet.STM16.PayloadBytes())
		}
	}
	step()
	if !bytes.Equal(rx[0], wire[:len(rx[0])]) || lz.Deframer().FramesOK != 1 {
		tb.Fatal("section did not carry the stream")
	}
	return steadyOp{step, sonet.STM16.FrameBytes()}
}

// BenchmarkScaling_WidthSweep runs the cycle-accurate system at every
// datapath width of the scaling study (E11) and reports goodput at each
// width's achievable Virtex-II clock.
func BenchmarkScaling_WidthSweep(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width=%dbit", w*8), func(b *testing.B) {
			var bpc float64
			for i := 0; i < b.N; i++ {
				bpc = throughputAtDensity(b, w, 0.02)
			}
			depth := synth.Total(synth.Inventory(w)).Depth
			fmax := synth.VirtexII.FMaxMHz(depth, true)
			b.ReportMetric(bpc, "bits/cycle")
			b.ReportMetric(bpc*fmax/1000, "Gbps@fmax")
		})
	}
}

// BenchmarkSONETCoupledGoodput (E13) runs the P5 over its STM-16
// section on one clock: the ~3.4% transport-overhead tax on goodput
// emerges from backpressure rather than configuration.
func BenchmarkSONETCoupledGoodput(b *testing.B) {
	b.ReportAllocs()
	var bpc float64
	for i := 0; i < b.N; i++ {
		sys := p5.NewSectionSystem(4, sonet.STM16)
		sys.OAM.Write(p5.RegCtrl, sys.OAM.Read(p5.RegCtrl)|0x10 /* idle fill */)

		payload := make([]byte, 1496)
		const n = 300
		for j := 0; j < n; j++ {
			sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
		}
		// Line-level accounting over the saturated middle: the fraction
		// of transport capacity carrying real PPP octets.
		fr := sys.Section.A.Framer()
		var f0, fill0 uint64
		for len(sys.Rx.Control.Queue) < 270 && sys.Sim.Now() < 50_000_000 {
			if f0 == 0 && len(sys.Rx.Control.Queue) >= 30 {
				f0, fill0 = fr.FramesBuilt, fr.FillOctets
			}
			sys.Cycle()
		}
		frames := float64(fr.FramesBuilt - f0)
		fill := float64(fr.FillOctets - fill0)
		util := (frames*float64(sonet.STM16.PayloadBytes()) - fill) /
			(frames * float64(sonet.STM16.FrameBytes()))
		bpc = util * 32 // of the 32 line bits per cycle
	}
	b.ReportMetric(bpc, "payload-bits/cycle")
	b.ReportMetric(bpc*synth.RequiredMHz/1000, "Gbps@78MHz")
	b.ReportMetric(float64(sonet.STM16.PayloadBytes())/float64(sonet.STM16.FrameBytes()), "overhead-ratio")
}

// BenchmarkBaseline_GFPvsHDLC (E15) compares the two frame-delineation
// families at the line level: HDLC's content-dependent stuffing versus
// GFP's fixed header, across escape densities. The crossover — GFP wins
// once stuffing expands a 1500-octet frame by more than 6 octets
// (≈0.4% density) — is the finding of the authors' follow-up work on
// delineation architectures.
func BenchmarkBaseline_GFPvsHDLC(b *testing.B) {
	for _, density := range []float64{0, 0.002, 0.004, 0.05, 0.5} {
		b.Run(fmt.Sprintf("density=%.3f", density), func(b *testing.B) {
			gen := netsim.NewGen(11, netsim.Fixed(1500), density)
			payloads := make([][]byte, 50)
			for i := range payloads {
				payloads[i] = gen.Next()
			}
			var hdlcOctets, gfpOctets int
			for i := 0; i < b.N; i++ {
				hdlcOctets, gfpOctets = 0, 0
				for _, p := range payloads {
					hdlcOctets += len(hdlc.ReferenceEncode(nil, p, hdlc.ACCMNone, false))
					g, _ := gfp.Encode(nil, p)
					gfpOctets += len(g)
				}
			}
			raw := 50 * 1500
			b.ReportMetric(100*float64(hdlcOctets-raw)/float64(raw), "hdlc-overhead-%")
			b.ReportMetric(100*float64(gfpOctets-raw)/float64(raw), "gfp-overhead-%")
		})
	}
}

// BenchmarkEngineAggregate is the line-card scale-out measurement: 8
// loopback pairs partitioned across 1/2/4/8 shard workers, steady-state
// traffic in both directions. One op is one engine step (every link
// advances once). The headline metrics are aggregate delivered frames
// per second and line-rate Gb/s; allocs/op must be 0 in steady state.
// Wall-clock speedup requires real cores — on a single-CPU host the
// shards=8 case measures scheduling overhead, not scaling (see
// EXPERIMENTS.md E16).
func BenchmarkEngineAggregate(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("links=8/shards=%d", shards), func(b *testing.B) {
			e, _ := steadyEngine(b, shards, false)
			benchEngineSteps(b, e)
		})
	}
}

// BenchmarkEngineAggregateProfiled is the armed twin of
// BenchmarkEngineAggregate: the same engine step loop with stage cost
// accounting enabled (prof.Collector, default 1-in-32 sampling).
// TestGateProfileOverhead holds its shards=1 step to the disarmed one.
// allocs/op must stay 0 — stamps are atomics into preallocated rings.
func BenchmarkEngineAggregateProfiled(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("links=8/shards=%d", shards), func(b *testing.B) {
			e, col := steadyEngine(b, shards, true)
			benchEngineSteps(b, e)
			sum := col.Summary()
			if sum.Sampled == 0 {
				b.Fatal("stage profile armed but no steps sampled")
			}
			b.ReportMetric(float64(sum.ImbalancePerMille), "imbalance-permille")
		})
	}
}

// steadyEngine returns the 8-link, 512-octet engine of the aggregate
// benches, brought up and warmed to steady-state buffer capacities,
// with the stage profile armed or not (col is nil when it is not).
func steadyEngine(tb testing.TB, shards int, armed bool) (e *Engine, col *prof.Collector) {
	e = NewEngine(EngineConfig{Links: 8, Shards: shards, PayloadSize: 512, Batch: 8})
	tb.Cleanup(e.Close)
	if armed {
		col = e.Observe(Observation{Profile: &prof.Config{}}, "bench").Profile
	}
	if !e.BringUp(512).Ready {
		tb.Fatal("engine bring-up failed")
	}
	e.Run(32)
	return e, col
}

func benchEngineSteps(b *testing.B, e *Engine) {
	start := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(b.N)
	b.StopTimer()
	st := e.Stats()
	delivered := float64(st.Datagrams - start.Datagrams)
	line := float64(st.LineBytes - start.LineBytes)
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(delivered/secs, "frames/s")
		b.ReportMetric(line*8/secs/1e9, "Gbps-line")
	}
	b.ReportMetric(delivered/float64(b.N), "frames/step")
}

// BenchmarkLinkEncodeSteady measures the steady-state transmit path of
// one negotiated link: batch dispatch, the production encoder (one wide
// FCS fold per frame, then stuffing), double-buffered drain. The alloc column is the point: 0 B/op.
func BenchmarkLinkEncodeSteady(b *testing.B) { benchSteady(b, encodeSteady(b, false)) }

// BenchmarkLinkEncodeSteadyFlight is the armed twin of
// BenchmarkLinkEncodeSteady: the identical transmit loop with the
// flight recorder attached, so the per-frame tagging cost is directly
// comparable. TestGateFlightOverhead holds the pair together.
func BenchmarkLinkEncodeSteadyFlight(b *testing.B) { benchSteady(b, encodeSteady(b, true)) }

// encodeSteady is one op of the steady-state transmit loop — a batch of
// eight 1500-octet datagrams through SendIPv4Batch, then Output — on a
// negotiated link, flight recorder armed or not.
func encodeSteady(tb testing.TB, armed bool) steadyOp {
	a, z := newTestPair(tb, LinkConfig{}, LinkConfig{})
	if armed {
		new(Watch).ObservePair(Observation{Flight: &flight.Config{}}, "bench", a, z)
	}
	payload := make([]byte, 1500)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = payload
	}
	step := func() {
		if _, err := a.SendIPv4Batch(batch); err != nil {
			tb.Fatal(err)
		}
		a.Output()
	}
	for i := 0; i < 4; i++ {
		step()
	}
	return steadyOp{step, len(payload) * len(batch)}
}

// BenchmarkLinkDecodeSteady measures the steady-state receive path:
// tokenization (span scan, bulk arena copy, one wide FCS fold at each
// closing flag), DecodeVerifiedBodyInto, arena copy, batch drain. 0 B/op once warm.
func BenchmarkLinkDecodeSteady(b *testing.B) {
	a, z := newTestPair(b, LinkConfig{}, LinkConfig{})
	payload := make([]byte, 1500)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = payload
	}
	if _, err := a.SendIPv4Batch(batch); err != nil {
		b.Fatal(err)
	}
	stream := append([]byte(nil), a.Output()...)
	var rx []Datagram
	for i := 0; i < 4; i++ { // grow buffers to steady-state capacity
		z.Input(stream)
		rx = z.ReceivedInto(rx[:0])
	}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Input(stream)
		rx = z.ReceivedInto(rx[:0])
		if len(rx) != len(batch) {
			b.Fatalf("decoded %d datagrams, want %d", len(rx), len(batch))
		}
	}
}

// BenchmarkLinkPair is the Link-level twin of the codec size sweep: a
// negotiated pair carrying seeded datagrams of one size at the 2 %
// escape density of real IP, one op = SendIPv4Batch + Output + Input +
// ReceivedInto of a batch of about 24 KB. MB/s is wire octets, so
// TestGateOC48Floor applies as it stands: both directions of a
// 40-octet frame on one core at 311 MB/s is the paper's claim in one
// number. At the small end the cost is per frame — header, flags, FCS
// tail, token and queue bookkeeping, everything Link adds around the
// kernels — which the 1500-octet steady benches above cannot see.
func BenchmarkLinkPair(b *testing.B) {
	for _, size := range sweepSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			benchSteady(b, linkPairOp(b, size))
		})
	}
}

// steadyOp is one op of a loop warmed to steady-state capacity, and the
// octets MB/s counts for it: wire octets for the sweeps, payload octets
// for the encode loop.
type steadyOp struct {
	step   func()
	octets int
}

func benchSteady(b *testing.B, op steadyOp) {
	b.SetBytes(int64(op.octets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.step()
	}
}

// linkPairOp is one op of BenchmarkLinkPair at one datagram size;
// successive ops cycle through four seeded batches, and octets is
// their mean on the wire.
func linkPairOp(tb testing.TB, size int) steadyOp {
	a, z := newTestPair(tb, LinkConfig{}, LinkConfig{})
	gen := netsim.NewGen(uint64(size), netsim.Fixed(size), 0.02)
	batches := make([][][]byte, 4)
	for i := range batches {
		batches[i] = gen.Burst(max(16*size, 24000))
	}
	var rx []Datagram
	carry := func(batch [][]byte) (wire int) {
		if _, err := a.SendIPv4Batch(batch); err != nil {
			tb.Fatal(err)
		}
		out := a.Output()
		z.Input(out)
		rx = z.ReceivedInto(rx[:0])
		if len(rx) != len(batch) {
			tb.Fatalf("delivered %d datagrams of %d", len(rx), len(batch))
		}
		return len(out)
	}
	wire := 0
	for range 2 { // grow buffers to steady-state capacity
		wire = 0
		for _, batch := range batches {
			wire += carry(batch)
		}
	}
	next := 0
	return steadyOp{func() {
		carry(batches[next%len(batches)])
		next++
	}, wire / len(batches)}
}

// sweepDensities are the escape-density points both codec sweeps visit:
// 0% is the pure memmove path, 2% typical IP traffic (the bitmap walk),
// 25–100% dense blocks (the word sorters take over), 100% doubles the
// wire. TestGateOC48Floor holds every point of both sweeps
// to 311 MB/s of wire.
var sweepDensities = []int{0, 2, 25, 50, 75, 100}

// sweepSizes is the other axis, at the 2% density of real IP: the frame
// sizes of the ladder's workloads. Cost per frame dominates at the
// small end, and the step between 40 and 64 octets is where the FCS
// fold goes from the slicing tables to the wide kernel.
var sweepSizes = []int{40, 64, 128, 576, 1500}

// sweepPoints names every point of both codec sweeps: the density axis
// at 1500 octets, then the size axis at 2%, then 2% placed at random,
// the layout of the ladder's link_mtu (escape=2% spreads it evenly).
func sweepPoints() []sweepPoint {
	var pts []sweepPoint
	for _, d := range sweepDensities {
		pts = append(pts, sweepPoint{fmt.Sprintf("escape=%d%%", d), densityPayload(1500, d)})
	}
	for _, n := range sweepSizes {
		pts = append(pts, sweepPoint{fmt.Sprintf("size=%d", n), densityPayload(n, 2)})
	}
	return append(pts, sweepPoint{"random=2%", netsim.NewGen(1, netsim.Fixed(1500), 0.02).Next()})
}

type sweepPoint struct {
	name    string
	payload []byte
}

// densityPayload returns n octets of which density percent, spread
// evenly, are flags (escaped on the wire).
func densityPayload(n, density int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = 0x55
		if (i+1)*density/100 > i*density/100 {
			p[i] = hdlc.Flag
		}
	}
	return p
}

// BenchmarkAppendFramed is the transmit-side sweep: the production
// encoder (ppp.AppendFramed) on one datagram per op. MB/s is wire
// octets produced; 0 allocs/op once dst has grown.
func BenchmarkAppendFramed(b *testing.B) {
	for _, pt := range sweepPoints() {
		b.Run(pt.name, func(b *testing.B) {
			benchSteady(b, appendFramedOp(pt.payload, hdlc.ACCMNone))
		})
	}
	b.Run(accmAllPoint.name, func(b *testing.B) {
		benchSteady(b, appendFramedOp(accmAllPoint.payload, hdlc.ACCMAll))
	})
}

// accmAllPoint is the transmit sweep's programmed-map point: the
// random=2% datagram sent under ACCMAll, so every control octet is
// escaped too (about 15 % of its octets) — the P5 with RegACCM set.
var accmAllPoint = sweepPoint{"accm=all", netsim.NewGen(1, netsim.Fixed(1500), 0.02).Next()}

func appendFramedOp(payload []byte, m hdlc.ACCM) steadyOp {
	hdr := []byte{0xFF, 0x03, 0x00, 0x21}
	dst := ppp.AppendFramed(nil, hdr, payload, crc.FCS32Mode, m, true)
	return steadyOp{func() {
		dst = ppp.AppendFramed(dst[:0], hdr, payload, crc.FCS32Mode, m, true)
	}, len(dst)}
}

// BenchmarkTokenizerFeed is the receive-side sweep: the production
// tokenizer (destuff, then one FCS fold per frame) in isolation, eight
// frames per op. MB/s is wire bytes through Feed; 0 allocs/op once the
// arena is warm.
func BenchmarkTokenizerFeed(b *testing.B) {
	for _, pt := range sweepPoints() {
		b.Run(pt.name, func(b *testing.B) {
			benchSteady(b, tokenizerFeedOp(b, pt.payload))
		})
	}
}

func tokenizerFeedOp(tb testing.TB, payload []byte) steadyOp {
	var stream []byte
	const frames = 8
	for i := 0; i < frames; i++ {
		body := crc.FCS32Mode.Append(append([]byte{0xFF, 0x03, 0x00, 0x21}, payload...))
		stream = hdlc.ReferenceEncode(stream, body, hdlc.ACCMNone, true)
	}
	tk := hdlc.Tokenizer{FCS: crc.FCS32Mode}
	var toks []hdlc.Token
	step := func() {
		toks = tk.Feed(toks[:0], stream)
		if len(toks) != frames {
			tb.Fatalf("got %d tokens, want %d", len(toks), frames)
		}
	}
	for i := 0; i < 4; i++ { // grow the arena to steady state
		step()
	}
	for _, tok := range toks {
		if tok.Err != nil || !tok.FCSOK {
			tb.Fatalf("bad token: %+v", tok)
		}
	}
	return steadyOp{step, len(stream)}
}

// BenchmarkSystemSteady runs the full cycle-accurate loopback system
// with and without telemetry instrumentation at both paper widths. The
// probe design (plain counters on the sim thread, mirrors synced every
// few hundred cycles) is accepted only if the telemetry=true variants
// stay within ~2% of the plain ones.
//
// The system (and telemetry registry) is constructed once per variant
// and drained every iteration, so an op measures the steady-state
// datapath plus the delivery contract rather than construction churn.
func BenchmarkSystemSteady(b *testing.B) {
	gen := netsim.NewGen(42, netsim.Fixed(1500), 0.02)
	payloads := make([][]byte, 20)
	var total int64
	for i := range payloads {
		payloads[i] = gen.Next()
		total += int64(len(payloads[i]))
	}
	for _, w := range []int{1, 4} {
		for _, instrumented := range []bool{false, true} {
			b.Run(fmt.Sprintf("width=%dbit/telemetry=%t", w*8, instrumented), func(b *testing.B) {
				b.SetBytes(total)
				// One registry for the whole variant: registration is
				// get-or-create, so each fresh system re-binds the same
				// mirrors. Building a registry per op buried the probe
				// cost under ~40 series registrations (537 vs 171
				// allocs/op at 8 bits) and measured setup, not probes.
				reg := telemetry.NewRegistry()
				// One system for the whole variant, drained each
				// iteration: constructing a system per op (wires, module
				// registration, queue growth) measured setup, not the
				// datapath. The received frames live in the receiver's
				// double-buffered arena, so a warmed op allocates nothing.
				sys := p5.NewSystem(w)
				if instrumented {
					sys.Instrument(reg)
				}
				var rx []p5.RxFrame
				var bpc float64
				b.ReportAllocs()
				b.ResetTimer()
				first := sys.Sim.Now()
				for i := 0; i < b.N; i++ {
					start := sys.Sim.Now()
					for _, d := range payloads {
						sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
					}
					if !sys.RunUntilIdle(10_000_000) {
						b.Fatal("system did not drain")
					}
					rx = sys.ReceivedInto(rx[:0])
					if len(rx) != len(payloads) {
						b.Fatalf("received %d frames, want %d", len(rx), len(payloads))
					}
					bpc = float64(total*8) / float64(sys.Sim.Now()-start)
				}
				b.ReportMetric(bpc, "bits/cycle")
				// Host cost of one simulated clock: bits/cycle is the
				// modelled machine and must not move; this is the
				// simulator and may.
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sys.Sim.Now()-first), "ns/cycle")
			})
		}
	}
}

// BenchmarkTransportUDPSteady measures the armed distributed-
// observatory steady state over a real UDP loopback pair: supervised
// links carried by socket transports with the v2 latency-tracing
// header live (virtual-tick stamp on every datagram, 1-in-2^k sampled
// wall stamps, keepalive RTT probes) and flight recorders plus capture
// correlation armed on both ends. The alloc column is the contract,
// held by TestTransportUDPSteadyZeroAlloc over the same op: the tracing
// and correlation plumbing rides the existing pooled buffers.
func BenchmarkTransportUDPSteady(b *testing.B) {
	step, dl := udpSteadyOp(b)
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	// Data flows a→z, so the dialer's meter holds the one-way samples.
	// On a 1-CPU host the measured loop starves the reader goroutines
	// (the kernel drops most flooded data datagrams before their sampled
	// wall stamps are seen, and probe replies queue unprocessed), so
	// first let the readers drain their backlog — StopTimer excludes
	// this — then assert the armed tracing path produced *some* sample,
	// one-way or RTT, as the liveness check.
	time.Sleep(50 * time.Millisecond)
	lat := dl.Latency()
	b.ReportMetric(float64(lat.Samples), "oneway-samples")
	b.ReportMetric(float64(lat.RTTSamples), "rtt-samples")
	if lat.Samples == 0 && lat.RTTSamples == 0 && b.N > 256 {
		b.Fatal("latency tracing armed but no one-way or RTT samples")
	}
}

// udpSteadyOp returns one op of the armed socket loop — one 1500-octet
// datagram sent, both ports ticked — on a negotiated pair with queues,
// arenas and meters warm, and the dialing transport.
func udpSteadyOp(tb testing.TB) (step func(), dl *transport.UDP) {
	// The measured loop advances virtual time far faster than wall time,
	// so probe replies land "late" in tick terms; a 1024-tick period
	// keeps probes (and their RTT samples) flowing while a run of a few
	// thousand ops stays short of the three silent periods that declare
	// a peer dead.
	cfg := transport.Config{KeepalivePeriod: 1024}
	ln, err := transport.NewUDP(transport.UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	dl, err = transport.NewUDP(transport.UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dl.Close() })
	pa, pz := supervisedPorts(ln, dl)
	new(Watch).ObservePair(Observation{Flight: &flight.Config{}}, "bench", pa, pz)
	if pa.fz == nil || pz.fz == nil {
		tb.Fatal("correlation did not arm on UDP transports")
	}

	now := int64(0)
	deadline := time.Now().Add(15 * time.Second)
	for !(pa.Link.IPReady() && pz.Link.IPReady()) {
		if time.Now().After(deadline) {
			tb.Fatalf("links not up over UDP: a=%v z=%v", pa.Link.IPReady(), pz.Link.IPReady())
		}
		now++
		pa.Tick(now)
		pz.Tick(now)
		time.Sleep(50 * time.Microsecond)
	}
	payload := make([]byte, 1500)
	step = func() {
		now++
		if err := pa.Link.SendIPv4(payload); err != nil {
			tb.Fatal(err)
		}
		pa.Tick(now)
		pz.Tick(now)
	}
	for i := 0; i < 512; i++ {
		step()
	}
	return step, dl
}
