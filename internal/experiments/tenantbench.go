package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/workload"
)

// Multi-tenant arbitration benchmark: three tenants share one node under a
// noisy-neighbor mix and the same seeded request schedule runs against
// three memory policies —
//
//   - unpartitioned: no quotas; pages go to whoever allocates first, i.e.
//     the churning tenant, because it writes on every miss.
//   - static: the pool split evenly, one fixed cap per tenant.
//   - arbitrated: the MRC arbiter re-partitions pages online by marginal
//     hit rate per page (Memshare-style stealing).
//
// The tenants are chosen so the right answer is unevenly shaped: "res" has
// a small hot set behind a reserved floor (the latency-critical tenant),
// "bulk" has a wide Zipf footprint that gains from every extra page, and
// "noisy" scans a keyspace far larger than the node so extra pages buy it
// nothing. The headline numbers are the aggregate hit-rate gain of
// arbitration over the static split, and how close the reserved tenant
// stays to its isolated baseline while the neighbor churns.
//
// Tenants are named the one way the cache knows: every key is
// "<tenant>/<key>" on a WithTenantPrefix('/') node.

// TenantBenchConfig sizes the benchmark.
type TenantBenchConfig struct {
	// Pages is the node's page-pool size.
	Pages int `json:"pages"`
	// ValueSize is the stored value size in bytes.
	ValueSize int `json:"valueSize"`
	// WarmupOps and MeasuredOps split each mode's run; only the measured
	// phase is scored.
	WarmupOps   int `json:"warmupOps"`
	MeasuredOps int `json:"measuredOps"`
	// ArbEvery is the arbiter cycle period in ops (arbitrated mode).
	ArbEvery int `json:"arbEvery"`
	// ResKeys/BulkKeys/NoisyKeys are per-tenant keyspace sizes.
	ResKeys   int `json:"resKeys"`
	BulkKeys  int `json:"bulkKeys"`
	NoisyKeys int `json:"noisyKeys"`
	// ResZipf and BulkZipf are popularity skews (noisy scans sequentially).
	ResZipf  float64 `json:"resZipf"`
	BulkZipf float64 `json:"bulkZipf"`
	// ResShare/BulkShare/NoisyShare weight the request mix.
	ResShare   int `json:"resShare"`
	BulkShare  int `json:"bulkShare"`
	NoisyShare int `json:"noisyShare"`
	// ResReserved is the reserved page floor for the res tenant
	// (arbitrated mode; it is also the isolated-baseline cache size).
	ResReserved int `json:"resReserved"`
	// Seed drives the request schedule.
	Seed int64 `json:"seed"`
}

// DefaultTenantBenchConfig is the committed BENCH_tenant.json
// configuration.
func DefaultTenantBenchConfig() TenantBenchConfig {
	return TenantBenchConfig{
		Pages:       24,
		ValueSize:   900,
		WarmupOps:   600_000,
		MeasuredOps: 600_000,
		ArbEvery:    20_000,
		ResKeys:     3_000,
		BulkKeys:    30_000,
		NoisyKeys:   300_000,
		ResZipf:     1.1,
		BulkZipf:    0.8,
		ResShare:    1,
		BulkShare:   2,
		NoisyShare:  2,
		ResReserved: 4,
		Seed:        1,
	}
}

// TenantRow is one tenant's outcome within a mode.
type TenantRow struct {
	Name    string  `json:"name"`
	HitRate float64 `json:"hitRate"`
	// Pages is the tenant's page holding at the end of the run.
	Pages int `json:"pages"`
}

// TenantModeResult is one memory policy's outcome.
type TenantModeResult struct {
	Mode string `json:"mode"`
	// Aggregate is the overall hit rate of the measured phase.
	Aggregate float64 `json:"aggregate"`
	// Tenants is the per-tenant breakdown (res, bulk, noisy).
	Tenants []TenantRow `json:"tenants"`
	// Moves counts arbiter page moves (arbitrated mode only).
	Moves uint64 `json:"moves"`
}

// TenantBenchResult is the full comparison.
type TenantBenchResult struct {
	Config TenantBenchConfig  `json:"config"`
	Modes  []TenantModeResult `json:"modes"`
	// IsolatedRes is the res tenant's hit rate running alone in a cache of
	// ResReserved pages — the bar its arbitrated hit rate is held to.
	IsolatedRes float64 `json:"isolatedRes"`
	// ArbVsStaticGain is arbitrated ÷ static aggregate − 1.
	ArbVsStaticGain float64 `json:"arbVsStaticGain"`
	// ResVsIsolated is arbitrated-res ÷ isolated-res − 1 (≥ −0.05 means
	// the reserved floor held).
	ResVsIsolated float64 `json:"resVsIsolated"`
}

// tenantNames is the fixed tenant order: res, bulk, noisy.
var tenantNames = [3]string{"res", "bulk", "noisy"}

// tenantDriver generates the shared request schedule: the same seed yields
// the same (tenant, key) sequence in every mode.
type tenantDriver struct {
	cfg   TenantBenchConfig
	rng   *rand.Rand
	res   *workload.Generator
	bulk  *workload.Generator
	scan  int
	total int
}

func newTenantDriver(cfg TenantBenchConfig) (*tenantDriver, error) {
	res, err := workload.NewGenerator(rand.New(rand.NewSource(cfg.Seed+1)), uint64(cfg.ResKeys),
		workload.WithZipfS(cfg.ResZipf))
	if err != nil {
		return nil, err
	}
	bulk, err := workload.NewGenerator(rand.New(rand.NewSource(cfg.Seed+2)), uint64(cfg.BulkKeys),
		workload.WithZipfS(cfg.BulkZipf))
	if err != nil {
		return nil, err
	}
	return &tenantDriver{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		res:   res,
		bulk:  bulk,
		total: cfg.ResShare + cfg.BulkShare + cfg.NoisyShare,
	}, nil
}

// next draws one request: the tenant index (0=res, 1=bulk, 2=noisy) and
// its key.
func (d *tenantDriver) next() (int, string) {
	pick := d.rng.Intn(d.total)
	switch {
	case pick < d.cfg.ResShare:
		return 0, d.res.Next().Key
	case pick < d.cfg.ResShare+d.cfg.BulkShare:
		return 1, d.bulk.Next().Key
	default:
		// The noisy tenant churns: a sequential scan whose reuse distance
		// (the whole keyspace) exceeds any allocation it could be given.
		k := workload.KeyName(uint64(d.scan))
		d.scan = (d.scan + 1) % d.cfg.NoisyKeys
		return 2, k
	}
}

// runTenantMode runs the shared schedule under one memory policy.
func runTenantMode(cfg TenantBenchConfig, mode string) (TenantModeResult, error) {
	c, err := cache.New(int64(cfg.Pages)*cache.PageSize, cache.WithShards(1), cache.WithTenantPrefix('/'))
	if err != nil {
		return TenantModeResult{}, err
	}
	even := cfg.Pages / 3
	var ids [3]uint16
	for i, name := range tenantNames {
		tc := cache.TenantConfig{}
		switch mode {
		case "static":
			tc.MaxPages = even
		case "arbitrated":
			// Floors: the res tenant's guarantee, plus one page each so a
			// fully-donated tenant can still serve by self-evicting.
			tc.ReservedPages = 1
			if i == 0 {
				tc.ReservedPages = cfg.ResReserved
			}
		}
		id, err := c.RegisterTenant(name, tc)
		if err != nil {
			return TenantModeResult{}, err
		}
		ids[i] = id
	}

	var arb *cache.Arbiter
	if mode == "arbitrated" {
		// Start from the same even split the static policy is stuck with;
		// everything past that is the arbiter's doing.
		for _, id := range ids {
			c.SetTenantQuota(id, even)
		}
		// The estimator must see stack distances out to where bulk's
		// marginal gain lives (~20k items), so size the MIMIR window well
		// past the largest allocation worth reasoning about.
		arb = cache.NewArbiter(c, cache.ArbiterConfig{
			SampleBuffer: 16384,
			Buckets:      96,
			BucketCap:    512,
		})
	}

	d, err := newTenantDriver(cfg)
	if err != nil {
		return TenantModeResult{}, err
	}
	value := make([]byte, cfg.ValueSize)
	var buf, kb []byte
	var warm [3]cache.TenantStats

	snapshot := func() [3]cache.TenantStats {
		var out [3]cache.TenantStats
		for _, ts := range c.TenantStats() {
			for i, name := range tenantNames {
				if ts.Name == name {
					out[i] = ts
				}
			}
		}
		return out
	}

	totalOps := cfg.WarmupOps + cfg.MeasuredOps
	for op := 0; op < totalOps; op++ {
		if op == cfg.WarmupOps {
			warm = snapshot()
		}
		ti, key := d.next()
		kb = append(append(append(kb[:0], tenantNames[ti]...), '/'), key...)
		var hit bool
		if buf, _, _, hit = c.GetInto(kb, buf[:0]); !hit {
			if err := c.SetBytes(kb, value, 0, time.Time{}); err != nil {
				return TenantModeResult{}, fmt.Errorf("mode %s: tenant %s: %w", mode, tenantNames[ti], err)
			}
		}
		if arb != nil && op%cfg.ArbEvery == cfg.ArbEvery-1 {
			arb.RunOnce()
		}
	}
	final := snapshot()

	res := TenantModeResult{Mode: mode}
	if arb != nil {
		res.Moves = arb.Moves()
	}
	var hits, ops uint64
	for i, name := range tenantNames {
		dh := final[i].Hits - warm[i].Hits
		dm := final[i].Misses - warm[i].Misses
		row := TenantRow{Name: name, Pages: final[i].Pages}
		if dh+dm > 0 {
			row.HitRate = float64(dh) / float64(dh+dm)
		}
		hits += dh
		ops += dh + dm
		res.Tenants = append(res.Tenants, row)
	}
	if ops > 0 {
		res.Aggregate = float64(hits) / float64(ops)
	}
	return res, nil
}

// runIsolatedRes measures the res tenant alone in a cache of its reserved
// size — what a hard partition would give it. Its keys are the same
// "res/<key>" bytes the mixed schedule sends.
func runIsolatedRes(cfg TenantBenchConfig) (float64, error) {
	c, err := cache.New(int64(cfg.ResReserved)*cache.PageSize, cache.WithShards(1))
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGenerator(rand.New(rand.NewSource(cfg.Seed+1)), uint64(cfg.ResKeys),
		workload.WithZipfS(cfg.ResZipf))
	if err != nil {
		return 0, err
	}
	// The res tenant sees ResShare/total of the mixed schedule; give the
	// isolated run the same op count so cold-miss amortization matches.
	total := cfg.ResShare + cfg.BulkShare + cfg.NoisyShare
	warmup := cfg.WarmupOps * cfg.ResShare / total
	measured := cfg.MeasuredOps * cfg.ResShare / total
	value := make([]byte, cfg.ValueSize)
	var buf []byte
	var hits, ops uint64
	for op := 0; op < warmup+measured; op++ {
		kb := []byte(tenantNames[0] + "/" + gen.Next().Key)
		var hit bool
		buf, _, _, hit = c.GetInto(kb, buf[:0])
		if !hit {
			if err := c.SetBytes(kb, value, 0, time.Time{}); err != nil {
				return 0, err
			}
		}
		if op >= warmup {
			ops++
			if hit {
				hits++
			}
		}
	}
	if ops == 0 {
		return 0, nil
	}
	return float64(hits) / float64(ops), nil
}

// TenantBench runs all modes plus the isolated baseline.
func TenantBench(cfg TenantBenchConfig) (*TenantBenchResult, error) {
	result := &TenantBenchResult{Config: cfg}
	for _, mode := range []string{"unpartitioned", "static", "arbitrated"} {
		mr, err := runTenantMode(cfg, mode)
		if err != nil {
			return nil, err
		}
		result.Modes = append(result.Modes, mr)
	}
	iso, err := runIsolatedRes(cfg)
	if err != nil {
		return nil, err
	}
	result.IsolatedRes = iso

	var static, arb *TenantModeResult
	for i := range result.Modes {
		switch result.Modes[i].Mode {
		case "static":
			static = &result.Modes[i]
		case "arbitrated":
			arb = &result.Modes[i]
		}
	}
	if static.Aggregate > 0 {
		result.ArbVsStaticGain = arb.Aggregate/static.Aggregate - 1
	}
	if iso > 0 {
		result.ResVsIsolated = arb.Tenants[0].HitRate/iso - 1
	}
	return result, nil
}

// Render prints the human-readable table.
func (r *TenantBenchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "multi-tenant arbitration: %d pages, mix res:bulk:noisy = %d:%d:%d\n",
		r.Config.Pages, r.Config.ResShare, r.Config.BulkShare, r.Config.NoisyShare)
	fmt.Fprintf(w, "%-14s %9s %28s %28s %28s %6s\n",
		"mode", "aggregate", "res hit/pages", "bulk hit/pages", "noisy hit/pages", "moves")
	for _, m := range r.Modes {
		fmt.Fprintf(w, "%-14s %9.3f", m.Mode, m.Aggregate)
		for _, t := range m.Tenants {
			fmt.Fprintf(w, " %20.3f / %5d", t.HitRate, t.Pages)
		}
		fmt.Fprintf(w, " %6d\n", m.Moves)
	}
	fmt.Fprintf(w, "isolated res baseline (%d pages): %.3f\n", r.Config.ResReserved, r.IsolatedRes)
	fmt.Fprintf(w, "arbitrated vs static aggregate: %+.1f%%\n", 100*r.ArbVsStaticGain)
	fmt.Fprintf(w, "arbitrated res vs isolated:     %+.1f%%\n", 100*r.ResVsIsolated)
}

// WriteJSON writes the machine-readable result.
func (r *TenantBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
