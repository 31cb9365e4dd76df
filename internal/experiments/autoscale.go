package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AutoScaleResult is the closed-loop experiment (Section III-B end to
// end): the stack-distance AutoScaler drives scaling decisions from the
// sampled request stream while ElMem migrates ahead of every action.
type AutoScaleResult struct {
	// Trace names the demand trace driving the loop.
	Trace trace.Name
	// Actions is the decision timeline the loop produced.
	Actions []sim.ExecutedAction
	// Series is the resulting per-second performance.
	Series []metrics.SecondStat
	// FinalNodes is the tier size at the end.
	FinalNodes int
	// MeanP95 summarizes the run's tail latency.
	MeanP95 time.Duration
}

// AutoScale runs the closed loop over the named trace.
func AutoScale(name trace.Name, fast bool) (*AutoScaleResult, error) {
	tr, err := trace.Generate(name, trace.Options{})
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(tr)
	if fast {
		cfg.Duration = 2 * time.Minute
		cfg.Warmup = 90 * time.Second
		cfg.PeakRate = 300
		cfg.Keys = 40_000
		cfg.MigrationDelay = 8 * time.Second
	}
	// The planning r_DB is set so p_min is attainable on the sampling
	// window (cold-start misses bound the observable hit rate) and spans
	// hold-at-peak → shrink-at-trough across the trace's demand range.
	kvPeak := cfg.PeakRate * sim.KVPerRequest
	cfg.AutoScale = &autoscaler.Config{
		DBCapacity:   kvPeak / 2,
		ItemsPerNode: int(cfg.Keys / 10),
		MinNodes:     2,
		MaxNodes:     cfg.Nodes + 4,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &AutoScaleResult{
		Trace:      name,
		Actions:    res.Actions,
		Series:     res.Series,
		FinalNodes: len(res.FinalMembers),
	}
	var sum time.Duration
	n := 0
	for _, st := range res.Series {
		if st.Requests == 0 {
			continue
		}
		sum += st.P95
		n++
	}
	if n > 0 {
		out.MeanP95 = sum / time.Duration(n)
	}
	return out, nil
}

// Render prints the decision timeline.
func (r *AutoScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# closed loop on %s: Eq.(1) + stack distance every 30s, ElMem migration\n", r.Trace)
	fmt.Fprintln(w, "decision_at from to migrated flip_at")
	for _, a := range r.Actions {
		fmt.Fprintf(w, "%v %d %d %d %v\n",
			a.DecisionAt.Round(time.Second), a.FromNodes, a.ToNodes,
			a.ItemsMigrated, a.ExecutedAt.Round(time.Second))
	}
	fmt.Fprintf(w, "final_nodes %d mean_p95 %v\n", r.FinalNodes, r.MeanP95.Round(time.Microsecond))
}
