package p5

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rtl"
)

// BenchmarkAblation_ResyncDepth sweeps the resynchronisation buffer
// capacity: the paper's "extremely low" buffer versus stall rate. The
// unit's own capacity is the constant 4W; the sweep reserves the buffer
// before the first clock.
func BenchmarkAblation_ResyncDepth(b *testing.B) {
	body := make([]byte, 4096)
	g := netsim.NewRand(7)
	for i := range body {
		if g.Intn(4) == 0 {
			body[i] = 0x7E
		} else {
			body[i] = byte(g.Intn(256))
		}
	}
	for _, depth := range []int{2*4 + 2, 16, 32, 64} { // 2W+2: one worst-case word and its flags
		b.Run(fmt.Sprintf("bufcap=%d", depth), func(b *testing.B) {
			var stalls uint64
			var cycles int64
			for i := 0; i < b.N; i++ {
				sim := &rtl.Sim{}
				src := &rtl.Source{Out: sim.Wire("in")}
				out := sim.Wire("out")
				gen := &EscapeGen{In: src.Out, Out: out, W: 4}
				gen.fifo.reserve(depth)
				sink := rtl.NewSink(out)
				sim.Add(src, gen, sink)
				src.FeedBytes(body, 4)
				sim.RunUntil(func() bool {
					return src.Pending() == 0 && !gen.Busy() && sim.Drained()
				}, len(body)*8)
				stalls = gen.InputStalls
				cycles = sim.Now()
			}
			b.ReportMetric(float64(stalls), "input-stalls")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblation_Backpressure compares buffer growth with the
// backpressure gate against an unbounded buffer under an all-flags
// burst.
func BenchmarkAblation_Backpressure(b *testing.B) {
	body := bytes.Repeat([]byte{0x7E}, 2048)
	for _, cap := range []int{16, 1 << 20} {
		name := "bounded-16"
		if cap > 1024 {
			name = "unbounded"
		}
		b.Run(name, func(b *testing.B) {
			var high int
			for i := 0; i < b.N; i++ {
				sim := &rtl.Sim{}
				src := &rtl.Source{Out: sim.Wire("in")}
				out := sim.Wire("out")
				gen := &EscapeGen{In: src.Out, Out: out, W: 4}
				gen.fifo.reserve(cap)
				sink := rtl.NewSink(out)
				sim.Add(src, gen, sink)
				src.FeedBytes(body, 4)
				sim.RunUntil(func() bool {
					return src.Pending() == 0 && !gen.Busy() && sim.Drained()
				}, len(body)*8)
				high = gen.HighWater()
			}
			b.ReportMetric(float64(high), "buffer-highwater-octets")
		})
	}
}
