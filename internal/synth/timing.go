package synth

// Tech is an FPGA technology/speed-grade delay model. The paper's timing
// analysis found the same 6-LUT critical path on Virtex and Virtex-II,
// attributing the Virtex-II speed-up purely to per-LUT delay — exactly
// the structure of this model: the clock period is depth LUT delays,
// depth+1 net hops, and a fixed clock-to-out + setup overhead. Routing
// delay rises after place-and-route (the pre/post-layout split of the
// paper's tables).
type Tech struct {
	Name     string
	TLUT     float64 // LUT propagation delay, ns
	TNetPre  float64 // estimated (pre-layout) net delay per hop, ns
	TNetPost float64 // routed (post-layout) net delay per hop, ns
	TFixed   float64 // clock-to-out + setup, ns
}

// The two device families the paper targets. Delays follow the Virtex
// (-4 speed grade) and Virtex-II (-6) datasheet classes.
var (
	Virtex   = Tech{Name: "Virtex -4", TLUT: 0.66, TNetPre: 0.35, TNetPost: 1.15, TFixed: 1.2}
	VirtexII = Tech{Name: "Virtex-II -6", TLUT: 0.38, TNetPre: 0.28, TNetPost: 0.60, TFixed: 0.9}
)

// FMaxMHz returns the achievable clock for the given logic depth.
func (t Tech) FMaxMHz(depth int, postLayout bool) float64 {
	if depth < 1 {
		depth = 1
	}
	net := t.TNetPre
	if postLayout {
		net = t.TNetPost
	}
	period := float64(depth)*t.TLUT + float64(depth+1)*net + t.TFixed
	return 1000.0 / period
}

// LineRateGbps converts a clock and datapath width into line throughput.
func LineRateGbps(fMaxMHz float64, wOctets int) float64 {
	return fMaxMHz * 1e6 * float64(wOctets) * 8 / 1e9
}

// RequiredMHz is the clock both P5 variants must reach: 78.125 MHz,
// which is 2.5 Gb/s on the 32-bit datapath and 625 Mb/s on the 8-bit
// one (the paper's stated targets — line rate scales with width at a
// fixed clock).
const RequiredMHz = 2500.0 / 32.0 // 78.125

// Device is an FPGA part with its LUT4/FF capacity.
type Device struct {
	Name string
	LUTs int
	FFs  int
	Tech Tech
}

// The parts used in the paper's Tables 1–3.
var (
	XCV50    = Device{Name: "XCV50-4", LUTs: 1536, FFs: 1536, Tech: Virtex}
	XCV600   = Device{Name: "XCV600-4", LUTs: 13824, FFs: 13824, Tech: Virtex}
	XC2V40   = Device{Name: "XC2V40-6", LUTs: 512, FFs: 512, Tech: VirtexII}
	XC2V1000 = Device{Name: "XC2V1000-6", LUTs: 10240, FFs: 10240, Tech: VirtexII}
)

// utilPct returns n as a percentage of cap.
func utilPct(n, cap int) float64 {
	if cap == 0 {
		return 0
	}
	return 100 * float64(n) / float64(cap)
}
