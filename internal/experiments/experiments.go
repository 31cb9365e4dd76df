// Package experiments regenerates every table and figure in the ElMem
// paper's evaluation (Section V). Each experiment returns a structured
// result plus a Render method that prints the same rows/series the paper
// reports; cmd/elmem-bench is the CLI front end and bench_test.go wraps
// each experiment in a testing.B benchmark. The comparison figures (2, 6
// and 8) replay ComparisonConfig's simulation under the sim.Policy values
// they compare; ComparisonConfig's fast flag is elmem-bench's -fast.
//
// Absolute numbers differ from the paper — the substrate is a calibrated
// simulator, not the authors' OpenStack testbed — but the shapes (who
// wins, by roughly what factor, where crossovers fall) are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RestoreThreshold is the 95%ile-RT bound under which performance counts
// as restored when computing restoration times.
const RestoreThreshold = 5 * time.Millisecond

// PolicyRun is one policy's series over a trace plus its degradation
// statistics per scaling action.
type PolicyRun struct {
	// Policy names the migration strategy.
	Policy sim.Policy
	// Series is the per-second hit rate / P95 sequence.
	Series []metrics.SecondStat
	// Actions lists the executed scaling actions.
	Actions []sim.ExecutedAction
	// Degradations holds one entry per action, aligned with Actions.
	Degradations []metrics.Degradation
}

// ComparisonResult is a baseline-vs-policies run over one trace.
type ComparisonResult struct {
	// Trace names the demand trace.
	Trace trace.Name
	// Config echoes the simulation parameters.
	Config sim.Config
	// Runs holds one PolicyRun per compared policy, baseline first.
	Runs []PolicyRun
	// ReductionPercent[p][i] is policy p's post-scaling degradation
	// reduction versus baseline for action i.
	ReductionPercent map[sim.Policy][]float64
}

// ComparisonConfig is the simulation the comparison figures (2, 6 and 8)
// replay over one trace. fast shrinks it ~4x for a quick pass.
func ComparisonConfig(name trace.Name, fast bool) (sim.Config, error) {
	tr, err := trace.Generate(name, trace.Options{})
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(tr)
	if name == trace.NLANR {
		cfg.Nodes = 8
	}
	if fast {
		cfg.Duration = 2 * time.Minute
		cfg.Warmup = 90 * time.Second
		cfg.PeakRate = 300
		cfg.Keys = 40_000
		cfg.DBModel.Capacity = 120
		cfg.MigrationDelay = 8 * time.Second
	}
	return cfg, nil
}

// RunComparison executes the given policies over one trace with identical
// seeds and computes per-action degradation reductions versus the first
// policy (the baseline).
func RunComparison(cfg sim.Config, kinds []sim.Policy) (*ComparisonResult, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("experiments: no policies to compare")
	}
	out := &ComparisonResult{
		Trace:            cfg.Trace.Name,
		Config:           cfg,
		ReductionPercent: make(map[sim.Policy][]float64),
	}
	for _, kind := range kinds {
		c := cfg
		c.Policy = kind
		res, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v run: %w", kind, err)
		}
		run := PolicyRun{
			Policy:  kind,
			Series:  res.Series,
			Actions: res.Actions,
		}
		for _, a := range res.Actions {
			window := postEventWindow(cfg, a)
			run.Degradations = append(run.Degradations,
				metrics.AnalyzeDegradation(res.Series, a.DecisionAt, window, RestoreThreshold))
		}
		out.Runs = append(out.Runs, run)
	}

	base := out.Runs[0]
	for _, run := range out.Runs[1:] {
		n := len(run.Degradations)
		if len(base.Degradations) < n {
			n = len(base.Degradations)
		}
		reductions := make([]float64, n)
		for i := 0; i < n; i++ {
			reductions[i] = metrics.ReductionPercent(base.Degradations[i], run.Degradations[i])
		}
		out.ReductionPercent[run.Policy] = reductions
	}
	return out, nil
}

// postEventWindow bounds the degradation analysis after one action: until
// the next action's decision or the end of the run.
func postEventWindow(cfg sim.Config, a sim.ExecutedAction) time.Duration {
	end := cfg.Duration
	scale := float64(cfg.Duration) / float64(cfg.Trace.Duration())
	for _, next := range cfg.Trace.Actions {
		at := time.Duration(float64(next.At) * scale)
		if at > a.DecisionAt && at < end {
			end = at
		}
	}
	return end - a.DecisionAt
}

// Render prints the comparison: per-policy action summaries plus the
// per-second series of the first and last policies (the figures' two
// lines).
func (r *ComparisonResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# trace=%s nodes=%d keys=%d peak=%.0f req/s (virtual %v)\n",
		r.Trace, r.Config.Nodes, r.Config.Keys, r.Config.PeakRate, r.Config.Duration)
	for _, run := range r.Runs {
		fmt.Fprintf(w, "policy=%s\n", run.Policy)
		for i, a := range run.Actions {
			var d metrics.Degradation
			if i < len(run.Degradations) {
				d = run.Degradations[i]
			}
			fmt.Fprintf(w, "  action %d: %d→%d decision=%v flip=%v migrated=%d peakRT=%v meanP95=%v restore=%v\n",
				i+1, a.FromNodes, a.ToNodes,
				a.DecisionAt.Round(time.Second), a.ExecutedAt.Round(time.Second),
				a.ItemsMigrated, d.PeakRT.Round(time.Microsecond),
				d.MeanP95.Round(time.Microsecond), d.RestorationTime.Round(time.Second))
		}
	}
	for _, run := range r.Runs[1:] { // run order, not map order: output is deterministic
		for i, red := range r.ReductionPercent[run.Policy] {
			fmt.Fprintf(w, "reduction vs baseline: policy=%s action=%d %.1f%%\n", run.Policy, i+1, red)
		}
	}
	fmt.Fprintln(w, "second hitrate_first p95_first hitrate_last p95_last")
	first, last := r.Runs[0], r.Runs[len(r.Runs)-1]
	n := len(first.Series)
	if len(last.Series) < n {
		n = len(last.Series)
	}
	for i := 0; i < n; i++ {
		a, b := first.Series[i], last.Series[i]
		if a.Requests == 0 && b.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "%d %.3f %.4f %.3f %.4f\n",
			int(a.At/time.Second), a.HitRate(), a.P95.Seconds(), b.HitRate(), b.P95.Seconds())
	}
}

// Fig5Result is the normalized trace set of Figure 5.
type Fig5Result struct {
	// Traces holds the five generated demand series.
	Traces []*trace.Trace
}

// Fig5 regenerates the five demand traces.
func Fig5() (*Fig5Result, error) {
	out := &Fig5Result{}
	for _, name := range trace.All() {
		tr, err := trace.Generate(name, trace.Options{Noise: 0.03})
		if err != nil {
			return nil, err
		}
		out.Traces = append(out.Traces, tr)
	}
	return out, nil
}

// Render prints each trace as (name, minute, normalized rate) rows.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "trace minute rate")
	for _, tr := range r.Traces {
		for _, p := range tr.Points {
			if int(p.At/time.Second)%60 != 0 {
				continue
			}
			fmt.Fprintf(w, "%s %d %.3f\n", tr.Name, int(p.At/time.Minute), p.Rate)
		}
	}
}
