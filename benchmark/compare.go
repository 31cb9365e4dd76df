package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runRecord is one run inside a -repeat file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// spreadStat summarizes one metric over the runs of a -repeat file the
// way the acceptance driver does: median and quartiles.
type spreadStat struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// runSet is the file -repeat writes and -compare reads.
type runSet struct {
	Host    host                             `json:"host"`
	Claim   *string                          `json:"claim"` // always null: no gain is claimed here
	Runs    []runRecord                      `json:"runs"`
	Summary map[string]map[string]spreadStat `json:"summary"` // workload -> metric
}

// repeatRuns runs every chosen workload n times in this process, one after
// the other, and writes the runs with their medians and quartiles.
func repeatRuns(out string, chosen []spec, n int, run func(spec) (result, detail, error)) error {
	set := runSet{Host: hostFacts(), Summary: map[string]map[string]spreadStat{}}
	for i := 0; i < n; i++ {
		for _, sp := range chosen {
			res, det, err := run(sp)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d ops failed", sp.name, i+1, res.Failed, res.Attempted)
			}
			set.Runs = append(set.Runs, runRecord{Workload: sp.name, Seed: det.Seed, Trace: det.Trace, result: res})
			fmt.Fprintf(logw, "%s run %d/%d done\n", sp.name, i+1, n)
		}
	}
	values := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	for w, byMetric := range values {
		set.Summary[w] = map[string]spreadStat{}
		for name, v := range byMetric {
			q1, q2, q3 := quartiles(v)
			set.Summary[w][name] = spreadStat{N: len(v), Q1: q1, Median: q2, Q3: q3}
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

// benchFile is the part of BENCHMARK.json -compare needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, how much worse b is than a as a share of a, the bound, and a
// verdict. A row is unresolved when either side's own quartile spread
// exceeds the bound: then the runs cannot tell a change from noise. It
// returns an error when any row is worse.
func compareFiles(w io.Writer, benchJSON, pathA, pathB string) error {
	var bench benchFile
	var a, b runSet
	if err := errors.Join(readJSON(benchJSON, &bench), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta.median\tb.median\tworse_by\tbound\tverdict")
	worse := 0
	for _, sp := range specs {
		for _, m := range bench.EndToEnd {
			sa, okA := a.Summary[sp.name][m.Name]
			sb, okB := b.Summary[sp.name][m.Name]
			if !okA || !okB {
				continue
			}
			by := (sb.Median - sa.Median) / math.Abs(sa.Median)
			if m.Better == "higher" {
				by = -by
			}
			verdict := "ok"
			switch {
			case spread(sa) > m.Bound || spread(sb) > m.Bound:
				verdict = "unresolved"
			case by > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.0f%%\t%s\n",
				sp.name, m.Name, m.Unit, sa.Median, sb.Median, 100*by, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}

// spread is the interquartile range as a share of the median.
func spread(s spreadStat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
