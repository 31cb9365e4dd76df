package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fastConfig is the -fast comparison, for test speed.
func fastConfig(t *testing.T, name trace.Name) sim.Config {
	t.Helper()
	cfg, err := ComparisonConfig(name, true)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunComparisonBaselineVsElMem(t *testing.T) {
	cfg := fastConfig(t, trace.SYS)
	res, err := RunComparison(cfg, []sim.Policy{sim.Baseline, sim.ElMem})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	reductions := res.ReductionPercent[sim.ElMem]
	if len(reductions) == 0 {
		t.Fatal("no reductions computed")
	}
	if reductions[0] <= 0 {
		t.Fatalf("ElMem reduction %.1f%%, want positive", reductions[0])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"policy=baseline", "policy=elmem", "reduction vs baseline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out[:min(len(out), 400)])
		}
	}
}

func TestRunComparisonNoPolicies(t *testing.T) {
	cfg := fastConfig(t, trace.SYS)
	if _, err := RunComparison(cfg, nil); err == nil {
		t.Fatal("want error for empty policy list")
	}
}

func TestFig5(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 5 {
		t.Fatalf("traces = %d, want 5", len(res.Traces))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, name := range trace.All() {
		if !strings.Contains(buf.String(), name.String()) {
			t.Fatalf("render missing trace %s", name)
		}
	}
}

func TestNodeChoiceSmall(t *testing.T) {
	cfg := NodeChoiceConfig{
		Nodes:     4,
		NodePages: 2,
		Keys:      60_000,
		Accesses:  150_000,
		ZipfS:     0.99,
		Seed:      5,
	}
	res, err := NodeChoice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// The ElMem (coldest) choice must not migrate more than the worst.
	if res.Coldest > res.Worst {
		t.Fatalf("coldest %d > worst %d", res.Coldest, res.Worst)
	}
	// Scores must be in ascending rank order.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Score < res.Rows[i-1].Score {
			t.Fatal("rows not sorted by score")
		}
	}
	if res.RandomMean < float64(res.Coldest) {
		t.Fatalf("random mean %.0f below coldest %d", res.RandomMean, res.Coldest)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "random_overhead") {
		t.Fatal("render missing summary")
	}
}

func TestNodeChoiceValidation(t *testing.T) {
	if _, err := NodeChoice(NodeChoiceConfig{Nodes: 1}); err == nil {
		t.Fatal("want error for one node")
	}
}

func TestOverheadSmall(t *testing.T) {
	res, err := Overhead(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.ItemsMigrated == 0 {
		t.Fatal("nothing migrated")
	}
	wantPhases := []string{"score", "metadata", "fusecache", "data", "handover", "membership"}
	if len(res.Timings) != len(wantPhases) {
		t.Fatalf("timings = %v", res.Timings)
	}
	for i, ph := range wantPhases {
		if res.Timings[i].Phase != ph {
			t.Fatalf("phase %d = %s, want %s", i, res.Timings[i].Phase, ph)
		}
	}
	if res.Total <= 0 {
		t.Fatal("zero total")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "total") {
		t.Fatal("render missing total")
	}
}

func TestOverheadValidation(t *testing.T) {
	if _, err := Overhead(1, 10); err == nil {
		t.Fatal("want error for one node")
	}
}

func TestFuseCacheComplexity(t *testing.T) {
	rows, err := FuseCacheComplexity([]int{4}, []int{1000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// FuseCache's comparisons must grow sublinearly in n.
	if rows[1].Comparisons > rows[0].Comparisons*3 {
		t.Fatalf("comparisons %d → %d over 4x n: not polylog", rows[0].Comparisons, rows[1].Comparisons)
	}
	var buf bytes.Buffer
	RenderFuseCacheRows(&buf, rows)
	if !strings.Contains(buf.String(), "fc_comparisons") {
		t.Fatal("render missing header")
	}
}

func TestCostMatchesPaper(t *testing.T) {
	res := Cost()
	if res.PowerOverheadPercent < 44 || res.PowerOverheadPercent > 50 {
		t.Fatalf("power overhead %.1f, paper ≈47", res.PowerOverheadPercent)
	}
	if res.CostOverheadPercent < 64 || res.CostOverheadPercent > 68 {
		t.Fatalf("cost overhead %.1f, paper ≈66", res.CostOverheadPercent)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "power_overhead_percent") {
		t.Fatal("render incomplete")
	}
}

func TestHeadroomWithinPaperBand(t *testing.T) {
	rows, err := Headroom(8_000, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 traces", len(rows))
	}
	for _, r := range rows {
		if r.SavingsPercent <= 0 {
			t.Errorf("%s: no elasticity savings", r.Trace)
		}
		if r.PeakNodes < 1 {
			t.Errorf("%s: peak nodes %d", r.Trace, r.PeakNodes)
		}
	}
	var buf bytes.Buffer
	RenderHeadroom(&buf, rows)
	if !strings.Contains(buf.String(), "savings_percent") {
		t.Fatal("render missing header")
	}
}

func TestHeadroomValidation(t *testing.T) {
	if _, err := Headroom(0, 1, 1); err == nil {
		t.Fatal("want error for bad parameters")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestAutoScaleClosedLoop(t *testing.T) {
	res, err := AutoScale(trace.SYS, true /* fast */)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 {
		t.Fatal("closed loop produced no scaling actions")
	}
	if res.FinalNodes < 2 {
		t.Fatalf("final nodes = %d", res.FinalNodes)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "final_nodes") {
		t.Fatal("render missing summary")
	}
}
