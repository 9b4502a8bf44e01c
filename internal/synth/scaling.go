package synth

import "fmt"

// ScalingRow is one width point of the datapath scaling study: the
// natural extension of the paper's 8-vs-32-bit comparison to 16- and
// 64-bit datapaths (the conclusion's "throughput rates beyond 2.5 Gbps"
// direction).
type ScalingRow struct {
	Bits      int // datapath width in bits
	LUTs      int
	FFs       int
	Depth     int
	FMaxPost  float64 // Virtex-II -6, post-layout
	LineGbps  float64 // width × achievable clock
	MeetsSTM  string  // highest standard rate the point can carry
	EscapeLUT int     // escape-generate share
}

// ScalingTable evaluates the P5 at datapath widths of 8..64 bits.
func ScalingTable() []ScalingRow {
	var rows []ScalingRow
	for _, w := range []int{1, 2, 4, 8} {
		tot := Total(Inventory(w))
		fmax := VirtexII.FMaxMHz(tot.Depth, true)
		gbps := LineRateGbps(fmax, w)
		rows = append(rows, ScalingRow{
			Bits:      w * 8,
			LUTs:      tot.LUTs,
			FFs:       tot.FFs,
			Depth:     tot.Depth,
			FMaxPost:  fmax,
			LineGbps:  gbps,
			MeetsSTM:  highestSTM(gbps),
			EscapeLUT: escapeGenerate(w).LUTs,
		})
	}
	return rows
}

func highestSTM(gbps float64) string {
	switch {
	case gbps >= 9.95:
		return "STM-64 (10 Gb/s)"
	case gbps >= 2.488:
		return "STM-16 (2.5 Gb/s)"
	case gbps >= 0.622:
		return "STM-4 (622 Mb/s)"
	case gbps >= 0.155:
		return "STM-1 (155 Mb/s)"
	default:
		return "sub-STM-1"
	}
}

// FormatScalingTable renders the scaling study.
func FormatScalingTable(rows []ScalingRow) string {
	out := "Datapath scaling study (Virtex-II -6, post-layout)\n"
	out += fmt.Sprintf("%6s %8s %6s %6s %10s %10s %10s  %s\n",
		"width", "LUTs", "FFs", "depth", "fMax", "line rate", "escape", "carries")
	for _, r := range rows {
		out += fmt.Sprintf("%4d-b %8d %6d %6d %7.1f MHz %7.2f Gb/s %6d LUT  %s\n",
			r.Bits, r.LUTs, r.FFs, r.Depth, r.FMaxPost, r.LineGbps, r.EscapeLUT, r.MeetsSTM)
	}
	return out
}
