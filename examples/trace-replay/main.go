// Trace replay: Figure 2 in miniature. Replays the Facebook ETC demand
// trace through the discrete-event testbed twice — once with the baseline
// (immediate scale, no migration) and once with ElMem — and prints the
// per-second 95%ile response times around the scale-in, plus the
// post-scaling degradation reduction.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := trace.Generate(trace.ETC, trace.Options{})
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(tr)
	cfg.Duration = 4 * time.Minute
	cfg.Warmup = 2 * time.Minute
	cfg.PeakRate = 600
	cfg.Keys = 60_000
	// The DB knee sits between the steady-state miss load (~2% of the KV
	// rate) and the post-scaling miss surge, so the baseline saturates
	// while ElMem stays clear of the knee.
	cfg.DBModel.Capacity = 150
	cfg.MigrationDelay = 15 * time.Second

	fmt.Printf("replaying %s (%v compressed to %v, 10-node tier, ETC 10→9 then 9→10)\n",
		tr.Name, tr.Duration(), cfg.Duration)
	res, err := experiments.RunComparison(cfg, []sim.Policy{sim.Baseline, sim.ElMem})
	if err != nil {
		return err
	}

	baseline, elmem := res.Runs[0], res.Runs[1]
	fmt.Println("\nsec   baseline-hit  baseline-p95     elmem-hit  elmem-p95")
	for i := 0; i < len(baseline.Series) && i < len(elmem.Series); i += 5 {
		b, e := baseline.Series[i], elmem.Series[i]
		if b.Requests == 0 && e.Requests == 0 {
			continue
		}
		fmt.Printf("%4d   %10.3f  %12v  %10.3f  %10v\n",
			int(b.At/time.Second), b.HitRate(), b.P95.Round(time.Microsecond),
			e.HitRate(), e.P95.Round(time.Microsecond))
	}

	for i, a := range baseline.Actions {
		var bd, ed metrics.Degradation
		if i < len(baseline.Degradations) {
			bd = baseline.Degradations[i]
		}
		if i < len(elmem.Degradations) {
			ed = elmem.Degradations[i]
		}
		fmt.Printf("\naction %d (%d→%d at %v):\n", i+1, a.FromNodes, a.ToNodes, a.DecisionAt.Round(time.Second))
		fmt.Printf("  baseline: peak %v, mean P95 %v\n", bd.PeakRT.Round(time.Microsecond), bd.MeanP95.Round(time.Microsecond))
		fmt.Printf("  elmem:    peak %v, mean P95 %v\n", ed.PeakRT.Round(time.Microsecond), ed.MeanP95.Round(time.Microsecond))
		if reductions := res.ReductionPercent[sim.ElMem]; i < len(reductions) {
			fmt.Printf("  post-scaling degradation reduction: %.1f%% (paper headline: ≈90%%)\n", reductions[i])
		}
	}
	return nil
}
