package synth

import (
	"fmt"
	"strings"
)

// SystemRow is one device row of a Table 1/2-style synthesis summary.
type SystemRow struct {
	Device    Device
	LUTs      int
	LUTPct    float64
	FFs       int
	FFPct     float64
	FMaxPre   float64
	FMaxPost  float64
	MeetsRate bool // post-layout fMax clears 78.125 MHz
}

// SystemTable computes the paper's Table 1 (w = 1) or Table 2 (w = 4)
// for the given devices.
func SystemTable(w int, devices ...Device) []SystemRow {
	inv := Inventory(w)
	tot := Total(inv)
	rows := make([]SystemRow, 0, len(devices))
	for _, d := range devices {
		pre := d.Tech.FMaxMHz(tot.Depth, false)
		post := d.Tech.FMaxMHz(tot.Depth, true)
		rows = append(rows, SystemRow{
			Device:    d,
			LUTs:      tot.LUTs,
			LUTPct:    utilPct(tot.LUTs, d.LUTs),
			FFs:       tot.FFs,
			FFPct:     utilPct(tot.FFs, d.FFs),
			FMaxPre:   pre,
			FMaxPost:  post,
			MeetsRate: post >= RequiredMHz,
		})
	}
	return rows
}

// ModuleRow is one entry of the Table 3-style module comparison.
type ModuleRow struct {
	Name   string
	LUTs   int
	LUTPct float64
	FFs    int
	FFPct  float64
}

// EscapeGenerateTable computes the paper's Table 3: the Escape Generate
// module alone, both widths, utilisation against one device.
func EscapeGenerateTable(d Device) []ModuleRow {
	var rows []ModuleRow
	for _, w := range []int{4, 1} {
		c := escapeGenerate(w)
		rows = append(rows, ModuleRow{
			Name:   fmt.Sprintf("escape-generate %d-bit", w*8),
			LUTs:   c.LUTs,
			LUTPct: utilPct(c.LUTs, d.LUTs),
			FFs:    c.FFs,
			FFPct:  utilPct(c.FFs, d.FFs),
		})
	}
	return rows
}

// Ratios reports the paper's headline area ratios.
type Ratios struct {
	SystemLUT, SystemFF       float64 // full system, 32-bit / 8-bit
	DatapathLUT, DatapathFF   float64 // excluding OAM
	EscapeGenLUT, EscapeGenFF float64 // escape generate module alone
}

// ComputeRatios derives the 32-bit/8-bit area ratios from the
// inventories.
func ComputeRatios() Ratios {
	i8, i32 := Inventory(1), Inventory(4)
	t8, t32 := Total(i8), Total(i32)
	d8, d32 := datapathTotal(i8), datapathTotal(i32)
	e8, e32 := escapeGenerate(1), escapeGenerate(4)
	div := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return Ratios{
		SystemLUT:    div(t32.LUTs, t8.LUTs),
		SystemFF:     div(t32.FFs, t8.FFs),
		DatapathLUT:  div(d32.LUTs, d8.LUTs),
		DatapathFF:   div(d32.FFs, d8.FFs),
		EscapeGenLUT: div(e32.LUTs, e8.LUTs),
		EscapeGenFF:  div(e32.FFs, e8.FFs),
	}
}

// FormatSystemTable renders rows in the paper's layout.
func FormatSystemTable(title string, rows []SystemRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %13s %8s\n",
		"Device", "LUTs", "FFs", "fMax pre", "fMax post", "≥78.1?")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5d (%2.0f%%) %4d (%2.0f%%) %8.1f MHz %9.1f MHz %8v\n",
			r.Device.Name, r.LUTs, r.LUTPct, r.FFs, r.FFPct,
			r.FMaxPre, r.FMaxPost, r.MeetsRate)
	}
	return b.String()
}

// FormatModuleTable renders a Table 3-style comparison.
func FormatModuleTable(d Device, rows []ModuleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Escape Generate module on %s\n", d.Name)
	fmt.Fprintf(&b, "%-28s %12s %12s\n", "Implementation", "LUTs", "FFs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %6d (%2.0f%%) %6d (%2.0f%%)\n",
			r.Name, r.LUTs, r.LUTPct, r.FFs, r.FFPct)
	}
	return b.String()
}
