package autoscaler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinHitRateEq1(t *testing.T) {
	tests := []struct {
		name string
		r    float64
		rDB  float64
		want float64
	}{
		{name: "paper example", r: 80000, rDB: 40000, want: 0.5},
		{name: "db alone suffices", r: 30000, rDB: 40000, want: 0},
		{name: "equal rates", r: 40000, rDB: 40000, want: 0},
		{name: "10x load", r: 400000, rDB: 40000, want: 0.9},
		{name: "zero rate", r: 0, rDB: 40000, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MinHitRate(tt.r, tt.rDB); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("MinHitRate(%v, %v) = %v, want %v", tt.r, tt.rDB, got, tt.want)
			}
		})
	}
}

func TestMinHitRateProperty(t *testing.T) {
	// For any rate above capacity, serving (1-p_min) of it must not exceed
	// the database capacity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Float64()*1e6 + 1
		rDB := rng.Float64()*1e5 + 1
		p := MinHitRate(r, rDB)
		if p < 0 || p >= 1 {
			return false
		}
		return r*(1-p) <= rDB*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func validConfig() Config {
	return Config{
		DBCapacity:   40000,
		ItemsPerNode: 1000,
		MinNodes:     1,
		MaxNodes:     10,
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero db capacity", mutate: func(c *Config) { c.DBCapacity = 0 }},
		{name: "zero items per node", mutate: func(c *Config) { c.ItemsPerNode = 0 }},
		{name: "zero min nodes", mutate: func(c *Config) { c.MinNodes = 0 }},
		{name: "max below min", mutate: func(c *Config) { c.MaxNodes = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// feedUniform records a uniform stream over n keys, repeated rounds times
// so the stack-distance histogram converges.
func feedUniform(a *AutoScaler, n, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			a.Record(fmt.Sprintf("k%d", i))
		}
	}
}

func TestDecideScaleInWhenRateDrops(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(a, 5000, 10) // working set 5000 items = 5 nodes at full reuse
	// Low rate: p_min = 1 - 40000/50000 = 0.2 → small cache suffices.
	d, err := a.Decide(50000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if (d.TargetNodes - d.CurrentNodes) >= 0 {
		t.Fatalf("expected scale-in at low load, got delta %d (target %d)", (d.TargetNodes - d.CurrentNodes), d.TargetNodes)
	}
	if d.MinHitRate <= 0.19 || d.MinHitRate >= 0.21 {
		t.Fatalf("MinHitRate = %v, want 0.2", d.MinHitRate)
	}
}

func TestDecideScaleOutWhenRateRises(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(a, 5000, 10)
	// Very high rate: p_min = 1 - 40000/400000 = 0.9 → needs ~ all 5000
	// items ≈ 5 nodes.
	d, err := a.Decide(400000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if (d.TargetNodes - d.CurrentNodes) <= 0 {
		t.Fatalf("expected scale-out at high load, got delta %d", (d.TargetNodes - d.CurrentNodes))
	}
	if d.RequiredItems == 0 {
		t.Fatal("RequiredItems not reported")
	}
}

func TestDecideHoldsFloorWhenDBSuffices(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(a, 1000, 5)
	d, err := a.Decide(10000, 4) // below DBCapacity
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetNodes != 1 {
		t.Fatalf("TargetNodes = %d, want MinNodes=1 when DB suffices", d.TargetNodes)
	}
}

func TestDecideInfeasible(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All-distinct stream: no cache size yields hits.
	for i := 0; i < 10000; i++ {
		a.Record(fmt.Sprintf("unique-%d", i))
	}
	d, err := a.Decide(100000, 5)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if d.TargetNodes != 10 {
		t.Fatalf("infeasible decision should max out: %d, want 10", d.TargetNodes)
	}
}

func TestDecideClampsToBounds(t *testing.T) {
	cfg := validConfig()
	cfg.MinNodes = 3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(a, 100, 20) // tiny working set
	d, err := a.Decide(100000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetNodes != 3 {
		t.Fatalf("TargetNodes = %d, want clamp to MinNodes=3", d.TargetNodes)
	}
}

func TestDecideRejectsBadCurrentNodes(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(1000, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestResetClearsHistory(t *testing.T) {
	a, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedUniform(a, 100, 3)
	if a.profiler.Curve().MaxHitRate() == 0 {
		t.Fatal("samples not recorded")
	}
	a.Reset()
	if hr := a.profiler.Curve().MaxHitRate(); hr != 0 {
		t.Fatalf("hit rate %v after reset, want an empty history", hr)
	}
}
