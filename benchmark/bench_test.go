package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestStreamIsSeeded: the same seed must generate byte-identical requests
// and trigger indices, another seed different ones. Without this, two
// commits could be compared on different inputs.
func TestStreamIsSeeded(t *testing.T) {
	for _, sp := range specs {
		in, err := newInputs(sp.smoke())
		if err != nil {
			t.Fatal(err)
		}
		hash := func(seed int64) uint64 {
			h, err := in.streamHash(seed, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 hashed to %x then %x", sp.name, a, b)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", sp.name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json is the frozen contract;
// the program's tables must say the same, name for name.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	type entry struct {
		Name, Unit, Better string
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q, program %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: file has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (entry{d.name, d.unit, d.better}) {
				t.Errorf("%s metric %d: file has %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndDefs)
	check("per_layer", file.PerLayer, perLayerDefs)
}

// TestSmoke runs every workload both ways at about 1% scale: every metric
// BENCHMARK.json names must come out finite, no op may fail, and every
// listener must be closed again (runWorkload errors otherwise).
func TestSmoke(t *testing.T) {
	logw = io.Discard
	defer func() { logw = os.Stderr }()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			o := options{sp: sp.smoke(), seed: 1, seconds: 0.4, trace: trace, outDir: t.TempDir()}
			res, _, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEndDefs
			if trace {
				want = perLayerDefs
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", sp.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCompare: b worse than a beyond the bound is flagged, within it is
// not, and a noisy side makes the row unresolved instead of a verdict.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("bench.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "get_p95_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
	}})
	set := func(p95, ops spreadStat) runSet {
		return runSet{Summary: map[string]map[string]spreadStat{
			"get_heavy_depth1": {"get_p95_us": p95, "ops_per_s": ops},
		}}
	}
	steady := func(m float64) spreadStat { return spreadStat{N: 3, Q1: m * 0.99, Median: m, Q3: m * 1.01} }
	base := write("a.json", set(steady(20), steady(1000)))
	same := write("same.json", set(steady(21), steady(950)))
	slow := write("slow.json", set(steady(23), steady(1000)))
	noisy := write("noisy.json", set(spreadStat{N: 3, Q1: 18, Median: 23, Q3: 28}, steady(1000)))

	if err := compareFiles(io.Discard, bench, base, same); err != nil {
		t.Errorf("within the bound, yet: %v", err)
	}
	if err := compareFiles(io.Discard, bench, base, slow); err == nil {
		t.Error("a 15% worse p95 passed a 10% bound")
	}
	if err := compareFiles(io.Discard, bench, base, noisy); err != nil {
		t.Errorf("a noisy side must be unresolved, not worse: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
