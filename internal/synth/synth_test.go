package synth

import (
	"strings"
	"testing"

	"repro/internal/crc"
)

func TestCostAlgebra(t *testing.T) {
	a := Cost{LUTs: 10, FFs: 5, Depth: 2}
	b := Cost{LUTs: 3, FFs: 1, Depth: 4}
	if got := a.add(b); got != (Cost{13, 6, 4}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.times(3); got != (Cost{30, 15, 2}) {
		t.Errorf("Times = %+v", got)
	}
}

func TestPrimitiveFormulas(t *testing.T) {
	if register(16) != (Cost{FFs: 16}) {
		t.Error("Register")
	}
	// 8-input function: ceil(7/3) = 3 LUTs, depth 2.
	if got := lutTree(8); got.LUTs != 3 || got.Depth != 2 {
		t.Errorf("LUTTree(8) = %+v", got)
	}
	if got := lutTree(1); got.LUTs != 0 {
		t.Errorf("LUTTree(1) = %+v", got)
	}
	// 4-input: a single LUT.
	if got := lutTree(4); got.LUTs != 1 || got.Depth != 1 {
		t.Errorf("LUTTree(4) = %+v", got)
	}
	// 2:1 mux of 8 bits: 8 LUTs, depth 1.
	if got := mux(2, 8); got.LUTs != 8 || got.Depth != 1 {
		t.Errorf("Mux(2,8) = %+v", got)
	}
	// 8:1 mux: 7 LUTs per bit, depth 3.
	if got := mux(8, 1); got.LUTs != 7 || got.Depth != 3 {
		t.Errorf("Mux(8,1) = %+v", got)
	}
	if mux(1, 8).LUTs != 0 {
		t.Error("Mux(1) must be free")
	}
	if got := counter(16); got.LUTs != 16 || got.FFs != 16 {
		t.Errorf("Counter = %+v", got)
	}
	if priorityEncoder(1).LUTs != 0 {
		t.Error("PriorityEncoder(1)")
	}
}

// The published anchors of Tables 1-3. We assert our structural model
// lands within a tolerance of each, and exactly on the ordering claims.
func TestEscapeGenerateMatchesPaperTable3(t *testing.T) {
	e8 := escapeGenerate(1)
	e32 := escapeGenerate(4)
	// Paper: 8-bit = 22 LUTs, 6 FFs.
	if e8.LUTs != 22 || e8.FFs != 6 {
		t.Errorf("8-bit escape generate = %d LUT / %d FF, paper 22/6", e8.LUTs, e8.FFs)
	}
	// Paper: 32-bit = 492 LUTs, 168 FFs; allow 15%.
	within := func(got, want int, tol float64) bool {
		d := float64(got-want) / float64(want)
		return d >= -tol && d <= tol
	}
	if !within(e32.LUTs, 492, 0.15) {
		t.Errorf("32-bit escape generate LUTs = %d, paper 492", e32.LUTs)
	}
	if !within(e32.FFs, 168, 0.15) {
		t.Errorf("32-bit escape generate FFs = %d, paper 168", e32.FFs)
	}
}

func TestAreaRatiosMatchPaper(t *testing.T) {
	r := ComputeRatios()
	// Paper: escape module 25x LUTs, 28x FFs. Allow ±20%.
	if r.EscapeGenLUT < 20 || r.EscapeGenLUT > 30 {
		t.Errorf("escape LUT ratio = %.1f, paper 25x", r.EscapeGenLUT)
	}
	if r.EscapeGenFF < 22 || r.EscapeGenFF > 34 {
		t.Errorf("escape FF ratio = %.1f, paper 28x", r.EscapeGenFF)
	}
	// Paper: whole system ~11x. Our richer 8-bit baseline (full OAM
	// and control) dilutes this; the ordering and superlinearity must
	// still hold: ratio well above the 4x a linear scaling would give.
	if r.SystemLUT <= 1 || r.DatapathLUT <= r.SystemLUT {
		t.Errorf("ratio ordering wrong: system %.1f datapath %.1f", r.SystemLUT, r.DatapathLUT)
	}
	if r.DatapathLUT < 4.0 {
		t.Errorf("datapath LUT ratio = %.1f, must exceed linear 4x", r.DatapathLUT)
	}
}

func TestCriticalPathDepthIsSix(t *testing.T) {
	// Paper: "the critical path is the same for each device and in
	// each case passes through 6 [LUTs]".
	tot := Total(Inventory(4))
	if tot.Depth != 6 {
		t.Errorf("32-bit system depth = %d, paper 6", tot.Depth)
	}
	// The sorter owns the critical path.
	if escapeGenerate(4).Depth != 6 {
		t.Errorf("escape generate depth = %d", escapeGenerate(4).Depth)
	}
	if CRCUnit(4, 0).Depth >= 6 {
		t.Errorf("CRC depth %d should be off the critical path", CRCUnit(4, 0).Depth)
	}
}

func TestTimingModelOrdering(t *testing.T) {
	// Virtex-II is faster than Virtex at every depth, pre and post.
	for d := 2; d <= 10; d++ {
		for _, post := range []bool{false, true} {
			if VirtexII.FMaxMHz(d, post) <= Virtex.FMaxMHz(d, post) {
				t.Errorf("depth %d post=%v: Virtex-II not faster", d, post)
			}
		}
	}
	// Post-layout is always slower than pre-layout.
	if VirtexII.FMaxMHz(6, true) >= VirtexII.FMaxMHz(6, false) {
		t.Error("post-layout must be slower")
	}
}

func TestLineRateHeadline(t *testing.T) {
	// Paper headline: the 32-bit system on Virtex-II meets 78.125 MHz
	// (2.5 Gb/s); plain Virtex does not after layout.
	depth := Total(Inventory(4)).Depth
	if VirtexII.FMaxMHz(depth, true) < RequiredMHz {
		t.Errorf("Virtex-II post-layout %.1f MHz misses the 78.125 MHz bar",
			VirtexII.FMaxMHz(depth, true))
	}
	if Virtex.FMaxMHz(depth, true) >= RequiredMHz {
		t.Errorf("Virtex post-layout %.1f MHz should miss the bar (paper: met only with Virtex-II)",
			Virtex.FMaxMHz(depth, true))
	}
	// 78.125 MHz x 32 bits = 2.5 Gb/s; x 8 bits = 625 Mb/s.
	if g := LineRateGbps(RequiredMHz, 4); g < 2.49 || g > 2.51 {
		t.Errorf("32-bit line rate = %v Gb/s", g)
	}
	if g := LineRateGbps(RequiredMHz, 1); g < 0.62 || g > 0.63 {
		t.Errorf("8-bit line rate = %v Gb/s", g)
	}
}

func TestVirtexIISpeedupIsTechnologyNotDepth(t *testing.T) {
	// Paper: same 6-LUT path on both parts; speed-up comes from per-LUT
	// delay. Verify the model's speed-up at fixed depth matches the
	// LUT+net delay ratio direction and is in the observed ~1.4-1.8x.
	s := VirtexII.FMaxMHz(6, true) / Virtex.FMaxMHz(6, true)
	if s < 1.3 || s > 2.0 {
		t.Errorf("Virtex-II speed-up = %.2fx, expected 1.3-2.0x", s)
	}
}

func TestDeviceFit(t *testing.T) {
	// Paper: the complete 32-bit system uses ~25% of an XC2V1000.
	tot := Total(Inventory(4))
	pct := utilPct(tot.LUTs, XC2V1000.LUTs)
	if pct < 10 || pct > 40 {
		t.Errorf("XC2V1000 utilisation = %.0f%%, paper ~25%%", pct)
	}
	// The 32-bit escape generate nearly fills an XC2V40 (paper: 96%).
	eg := escapeGenerate(4)
	if p := utilPct(eg.LUTs, XC2V40.LUTs); p < 80 {
		t.Errorf("escape generate on XC2V40 = %.0f%%, paper 96%%", p)
	}
	// The 8-bit system fits an XCV50 with room (paper: 12%).
	t8 := Total(Inventory(1))
	if p := utilPct(t8.LUTs, XCV50.LUTs); p > 50 {
		t.Errorf("8-bit system on XCV50 = %.0f%%", p)
	}
}

func TestCoreTotalSubset(t *testing.T) {
	inv := Inventory(4)
	core := CoreTotal(inv)
	dp := datapathTotal(inv)
	tot := Total(inv)
	if !(core.LUTs < dp.LUTs && dp.LUTs < tot.LUTs) {
		t.Errorf("totals not nested: core %d, datapath %d, total %d",
			core.LUTs, dp.LUTs, tot.LUTs)
	}
}

func TestSystemTableRows(t *testing.T) {
	rows := SystemTable(4, XCV600, XC2V1000)
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	if rows[0].Device.Name != "XCV600-4" || rows[1].Device.Name != "XC2V1000-6" {
		t.Error("device order")
	}
	if rows[0].MeetsRate {
		t.Error("Virtex row should miss line rate post-layout")
	}
	if !rows[1].MeetsRate {
		t.Error("Virtex-II row should meet line rate")
	}
	out := FormatSystemTable("Table 2", rows)
	if !strings.Contains(out, "XC2V1000-6") || !strings.Contains(out, "MHz") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestEscapeGenerateTableFormat(t *testing.T) {
	rows := EscapeGenerateTable(XC2V40)
	if len(rows) != 2 || rows[0].Name != "escape-generate 32-bit" || rows[1].Name != "escape-generate 8-bit" {
		t.Fatalf("rows = %+v", rows)
	}
	out := FormatModuleTable(XC2V40, rows)
	if !strings.Contains(out, "escape-generate 32-bit") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestScalingTable(t *testing.T) {
	rows := ScalingTable()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Area grows superlinearly with width; line rate grows sublinearly
	// (depth increases eat into fMax).
	for i := 1; i < len(rows); i++ {
		if rows[i].LUTs <= rows[i-1].LUTs {
			t.Errorf("LUTs not monotone at %d bits", rows[i].Bits)
		}
		if rows[i].LineGbps <= rows[i-1].LineGbps {
			t.Errorf("line rate not monotone at %d bits", rows[i].Bits)
		}
	}
	// The escape unit's share of area grows with width — the paper's
	// central scaling observation extended.
	first := float64(rows[0].EscapeLUT) / float64(rows[0].LUTs)
	last := float64(rows[3].EscapeLUT) / float64(rows[3].LUTs)
	if last <= first {
		t.Errorf("escape share did not grow: %.2f → %.2f", first, last)
	}
	// 32-bit carries STM-16; 64-bit must reach beyond.
	if rows[2].MeetsSTM != "STM-16 (2.5 Gb/s)" {
		t.Errorf("32-bit carries %s", rows[2].MeetsSTM)
	}
	if rows[3].LineGbps <= rows[2].LineGbps {
		t.Error("64-bit not faster than 32-bit")
	}
	out := FormatScalingTable(rows)
	if !strings.Contains(out, "64-b") {
		t.Errorf("format:\n%s", out)
	}
}

func TestCRCUnitCostPinned(t *testing.T) {
	// The XOR-tree inventory is read off the GF(2) matrices of
	// crc.Parallel32; these are the numbers from before Step moved to
	// byte-sliced tables (PR 15). A change in how the engine evaluates
	// the matrices must not change the matrices.
	want := map[int][2]Cost{
		1: {{82, 40, 2}, {41, 24, 2}},
		2: {{149, 48, 3}, {74, 32, 3}},
		4: {{302, 64, 3}, {151, 48, 3}},
		8: {{475, 96, 3}, {237, 80, 3}},
	}
	for w, c := range want {
		if got := CRCUnit(w, crc.FCS32Mode); got != c[0] {
			t.Errorf("CRCUnit(%d, FCS-32) = %+v, want %+v", w, got, c[0])
		}
		if got := CRCUnit(w, crc.FCS16Mode); got != c[1] {
			t.Errorf("CRCUnit(%d, FCS-16) = %+v, want %+v", w, got, c[1])
		}
	}
}
