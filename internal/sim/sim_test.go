package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// quickConfig returns a fast configuration for unit tests: short duration,
// modest rates.
func quickConfig(t *testing.T, name trace.Name, kind Policy) Config {
	t.Helper()
	tr, err := trace.Generate(name, trace.Options{Step: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Policy = kind
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 2 * time.Minute
	cfg.PeakRate = 400
	cfg.Keys = 50_000
	cfg.NodePages = 4
	cfg.DBModel.Capacity = 150
	cfg.MigrationDelay = 10 * time.Second
	return cfg
}

func TestConfigValidation(t *testing.T) {
	tr, err := trace.Generate(trace.ETC, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(tr)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil trace", mutate: func(c *Config) { c.Trace = nil }},
		{name: "one node", mutate: func(c *Config) { c.Nodes = 1 }},
		{name: "zero pages", mutate: func(c *Config) { c.NodePages = 0 }},
		{name: "empty keyspace", mutate: func(c *Config) { c.Keys = 0 }},
		{name: "zero rate", mutate: func(c *Config) { c.PeakRate = 0 }},
		{name: "zero duration", mutate: func(c *Config) { c.Duration = 0 }},
		{name: "bad db model", mutate: func(c *Config) { c.DBModel.Capacity = 0 }},
		{name: "bad policy", mutate: func(c *Config) { c.Policy = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRunProducesSeries(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, Baseline)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series produced")
	}
	if res.TotalRequests == 0 {
		t.Fatal("no requests processed")
	}
	if len(res.Actions) == 0 {
		t.Fatal("no scaling actions executed")
	}
	// The SYS trace scales 10 → 7.
	if got := len(res.FinalMembers); got != 7 {
		t.Fatalf("final members = %d, want 7", got)
	}
	// Series length ≈ duration in seconds.
	wantSecs := int(cfg.Duration / time.Second)
	if len(res.Series) < wantSecs-10 || len(res.Series) > wantSecs+10 {
		t.Fatalf("series has %d seconds, want ≈%d", len(res.Series), wantSecs)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, ElMem)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalRequests != b.TotalRequests || a.DBReads != b.DBReads {
		t.Fatalf("non-deterministic: %d/%d reqs, %d/%d reads",
			a.TotalRequests, b.TotalRequests, a.DBReads, b.DBReads)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatal("series lengths differ")
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series differ at second %d", i)
		}
	}
}

// TestFullSizeRunDeterministic replays the full-size configuration that
// `elmem-bench -experiment fig2` runs without -fast, on a shortened trace,
// twice and compares the results exactly. At the fast size a run has few
// items to migrate; at this size the Master's phase workers would read the
// shared virtual clock in scheduler order, and the runs would part after
// the first scaling action.
func TestFullSizeRunDeterministic(t *testing.T) {
	tr, err := trace.Generate(trace.ETC, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Duration = 3 * time.Minute
	cfg.Warmup = 90 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		if i < len(b.Series) && a.Series[i] != b.Series[i] {
			t.Fatalf("series differ at second %d: %+v vs %+v", i, a.Series[i], b.Series[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ: %d/%d requests, %d/%d DB reads, actions %+v vs %+v",
			a.TotalRequests, b.TotalRequests, a.DBReads, b.DBReads, a.Actions, b.Actions)
	}
}

func TestWarmupFillsCaches(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, Baseline)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After warmup, the first recorded seconds should already hit well.
	early := res.Series[5]
	if early.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f at second 5 — warmup ineffective", early.HitRate())
	}
}

func TestElMemMigratesItems(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, ElMem)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 {
		t.Fatal("no actions")
	}
	if res.Actions[0].ItemsMigrated == 0 {
		t.Fatal("ElMem migrated nothing")
	}
	// The flip happens MigrationDelay after the decision.
	a := res.Actions[0]
	lag := a.ExecutedAt - a.DecisionAt
	if lag < cfg.MigrationDelay || lag > cfg.MigrationDelay+5*time.Second {
		t.Fatalf("flip lag = %v, want ≈%v", lag, cfg.MigrationDelay)
	}
}

func TestBaselineFlipsImmediately(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, Baseline)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Actions[0]
	if a.ExecutedAt != a.DecisionAt {
		t.Fatalf("baseline flip lag = %v, want immediate", a.ExecutedAt-a.DecisionAt)
	}
	if a.ItemsMigrated != 0 {
		t.Fatalf("baseline migrated %d items, want 0", a.ItemsMigrated)
	}
}

// TestHeadlineElMemBeatsBaseline is the paper's core claim (Fig 2/6): the
// post-scaling degradation under ElMem is far smaller than under the
// baseline.
func TestHeadlineElMemBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("headline comparison runs full traces")
	}
	degradation := func(kind Policy) metrics.Degradation {
		cfg := quickConfig(t, trace.SYS, kind)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// SYS action at 30/70 of the trace → scaled decision point.
		event := time.Duration(float64(cfg.Duration) * 30.0 / 70.0)
		return metrics.AnalyzeDegradation(res.Series, event, cfg.Duration-event, 20*time.Millisecond)
	}
	base := degradation(Baseline)
	elmem := degradation(ElMem)
	if base.PeakRT == 0 {
		t.Fatal("baseline shows no degradation — simulation too easy")
	}
	reduction := metrics.ReductionPercent(base, elmem)
	t.Logf("baseline mean P95 %v peak %v; elmem mean P95 %v peak %v; reduction %.1f%%",
		base.MeanP95, base.PeakRT, elmem.MeanP95, elmem.PeakRT, reduction)
	if elmem.MeanP95 >= base.MeanP95 {
		t.Fatalf("ElMem mean P95 %v not better than baseline %v", elmem.MeanP95, base.MeanP95)
	}
	if reduction < 50 {
		t.Fatalf("degradation reduction %.1f%%, want the paper's large (>50%%) improvement", reduction)
	}
}

func TestCacheScaleSecondaryServesDuringTransition(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, CacheScale)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 {
		t.Fatal("no actions")
	}
	if got := len(res.FinalMembers); got != 7 {
		t.Fatalf("final members = %d, want 7", got)
	}
}

func TestNaivePolicyRuns(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, Naive)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions[0].ItemsMigrated == 0 {
		t.Fatal("naive migrated nothing")
	}
}

func TestScaleOutPath(t *testing.T) {
	// NLANR scales 8 → 9 (out) then 9 → 8 (in).
	cfg := quickConfig(t, trace.NLANR, ElMem)
	cfg.Nodes = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) != 2 {
		t.Fatalf("actions = %d, want 2", len(res.Actions))
	}
	out := res.Actions[0]
	if out.ToNodes != 9 || len(out.Added) != 1 {
		t.Fatalf("first action = %+v, want scale-out to 9", out)
	}
	if out.ItemsMigrated == 0 {
		t.Fatal("scale-out migrated nothing under ElMem")
	}
	if got := len(res.FinalMembers); got != 8 {
		t.Fatalf("final members = %d, want 8", got)
	}
}

func TestScaleOutBaselineCold(t *testing.T) {
	cfg := quickConfig(t, trace.NLANR, Baseline)
	cfg.Nodes = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Actions[0]
	if out.ItemsMigrated != 0 {
		t.Fatalf("baseline scale-out migrated %d items", out.ItemsMigrated)
	}
}

func TestAutoScaleClosedLoop(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, ElMem)
	// r_DB here is the AutoScaler's planning constant, set so p_min is
	// attainable on a 30-second sampling window (whose cold-start misses
	// bound the observable hit rate): at the pre-drop ~4000 KV/s this
	// gives p_min = 0.5, and after the SYS drop p_min goes negative,
	// forcing a scale-in to the floor.
	cfg.AutoScale = &autoscaler.Config{
		DBCapacity:   2000,
		ItemsPerNode: 6000,
		MinNodes:     2,
		MaxNodes:     12,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRequests == 0 {
		t.Fatal("no requests")
	}
	// The SYS demand drop must lead the closed loop to shrink the tier.
	if len(res.FinalMembers) >= 10 {
		t.Fatalf("autoscaler kept %d nodes despite the demand drop", len(res.FinalMembers))
	}
}

func TestHitRateDropsAfterBaselineScaleIn(t *testing.T) {
	cfg := quickConfig(t, trace.SYS, Baseline)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Actions[0]
	before := avgHitRate(res.Series, a.ExecutedAt-20*time.Second, a.ExecutedAt)
	after := avgHitRate(res.Series, a.ExecutedAt, a.ExecutedAt+20*time.Second)
	if after >= before {
		t.Fatalf("hit rate before %.3f, after %.3f — baseline cold-cache dip missing", before, after)
	}
}

func avgHitRate(series []metrics.SecondStat, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, st := range series {
		if st.At < from || st.At >= to || st.Requests == 0 {
			continue
		}
		sum += st.HitRate()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
