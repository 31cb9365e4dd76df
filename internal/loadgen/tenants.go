package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Multi-tenant mode: each web request belongs to one named tenant, drawn
// by request-rate share, and fetches keys from that tenant's own keyspace
// ("<name>/k...."), Zipf skew, and footprint. A tenant may carry a mid-run
// phase shift — its footprint multiplies at ShiftFrac of the run — which
// is the "noisy neighbor" scenario the memory arbiter exists for: one
// tenant's working set explodes and a static partition either starves it
// or lets it trample everyone else.

// TenantSpec describes one tenant's workload.
type TenantSpec struct {
	// Name prefixes every key as "<Name>/".
	Name string
	// Keys is the tenant's keyspace size.
	Keys uint64
	// ZipfS is the tenant's popularity skew (default 0.99).
	ZipfS float64
	// Share is the tenant's relative request-rate weight.
	Share float64
	// Shift, when > 0, multiplies the tenant's keyspace at ShiftFrac of
	// the run (a fresh Zipf over Keys×Shift keys): the noisy-neighbor
	// phase change. 0 means no shift.
	Shift float64
}

// TenantConfig parameterizes a multi-tenant run.
type TenantConfig struct {
	// Duration bounds the run.
	Duration time.Duration
	// Rate is the combined request rate (req/s) across tenants.
	Rate float64
	// KVPerRequest is the multi-get size.
	KVPerRequest int
	// Seed drives randomness.
	Seed int64
	// Tenants is the workload mix (at least one).
	Tenants []TenantSpec
	// ShiftFrac is the run fraction at which shifting tenants change
	// phase (default 0.5).
	ShiftFrac float64
}

func (c TenantConfig) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("%w: Duration %v", ErrBadConfig, c.Duration)
	case c.Rate <= 0:
		return fmt.Errorf("%w: Rate %v", ErrBadConfig, c.Rate)
	case c.KVPerRequest < 1:
		return fmt.Errorf("%w: KVPerRequest %d", ErrBadConfig, c.KVPerRequest)
	case len(c.Tenants) == 0:
		return fmt.Errorf("%w: no tenants", ErrBadConfig)
	}
	for _, t := range c.Tenants {
		switch {
		case t.Name == "":
			return fmt.Errorf("%w: unnamed tenant", ErrBadConfig)
		case t.Keys == 0:
			return fmt.Errorf("%w: tenant %s has zero keyspace", ErrBadConfig, t.Name)
		case t.Share <= 0:
			return fmt.Errorf("%w: tenant %s share %v", ErrBadConfig, t.Name, t.Share)
		}
	}
	return nil
}

// TenantOutcome is one tenant's side of a TenantReport.
type TenantOutcome struct {
	Name                   string
	Requests, Hits, Misses uint64
}

// HitRate is the tenant's KV hit fraction, 0 when idle.
func (o TenantOutcome) HitRate() float64 {
	if o.Hits+o.Misses == 0 {
		return 0
	}
	return float64(o.Hits) / float64(o.Hits+o.Misses)
}

// TenantReport is the outcome of RunTenants.
type TenantReport struct {
	Sent, Errors uint64
	AchievedRate float64
	// Series is the per-second aggregate hit rate and P95.
	Series []metrics.SecondStat
	// Tenants has one outcome per configured tenant, same order.
	Tenants []TenantOutcome
}

// RunTenants drives the handler with the multi-tenant mix until the
// duration elapses or ctx is cancelled.
func RunTenants(ctx context.Context, cfg TenantConfig, h Handler) (*TenantReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadConfig)
	}
	shiftFrac := cfg.ShiftFrac
	if shiftFrac <= 0 || shiftFrac >= 1 {
		shiftFrac = 0.5
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	gens := make([]*workload.Generator, len(cfg.Tenants))
	totalShare := 0.0
	for i, t := range cfg.Tenants {
		s := t.ZipfS
		if s == 0 {
			s = 0.99
		}
		g, err := workload.NewGenerator(rand.New(rand.NewSource(cfg.Seed+int64(i)+1)), t.Keys,
			workload.WithZipfS(s))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", t.Name, err)
		}
		gens[i] = g
		totalShare += t.Share
	}

	start := time.Now()
	recorder := metrics.NewRecorder(start)
	outcomes := make([]TenantOutcome, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		outcomes[i].Name = t.Name
	}
	var (
		mu      sync.Mutex
		sent    uint64
		errs    uint64
		wg      sync.WaitGroup
		tokens  = make(chan struct{}, maxInFlight)
		shifted = false
	)

	deadline := start.Add(cfg.Duration)
	shiftAt := start.Add(time.Duration(shiftFrac * float64(cfg.Duration)))
	for {
		now := time.Now()
		if now.After(deadline) || ctx.Err() != nil {
			break
		}
		if !shifted && now.After(shiftAt) {
			shifted = true
			for i, t := range cfg.Tenants {
				if t.Shift <= 0 {
					continue
				}
				s := t.ZipfS
				if s == 0 {
					s = 0.99
				}
				n := uint64(float64(t.Keys) * t.Shift)
				if n < 1 {
					n = 1
				}
				g, err := workload.NewGenerator(rand.New(rand.NewSource(cfg.Seed+int64(i)+1001)), n,
					workload.WithZipfS(s))
				if err != nil {
					return nil, fmt.Errorf("tenant %s shift: %w", t.Name, err)
				}
				mu.Lock()
				gens[i] = g
				mu.Unlock()
			}
		}

		mu.Lock()
		// Weighted tenant draw, then the whole multi-get from its keyspace.
		pick := rng.Float64() * totalShare
		ti := 0
		for i, t := range cfg.Tenants {
			if pick < t.Share {
				ti = i
				break
			}
			pick -= t.Share
			ti = i
		}
		batch := gens[ti].NextMulti(cfg.KVPerRequest)
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		mu.Unlock()
		keys := make([]string, len(batch))
		prefix := cfg.Tenants[ti].Name + "/"
		for i, r := range batch {
			keys[i] = prefix + r.Key
		}

		tokens <- struct{}{}
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			defer func() { <-tokens }()
			rt, hits, misses, err := h.Handle(keys)
			mu.Lock()
			defer mu.Unlock()
			sent++
			if err != nil {
				errs++
				return
			}
			o := &outcomes[ti]
			o.Requests++
			o.Hits += uint64(hits)
			o.Misses += uint64(misses)
			recorder.RecordRequest(time.Now(), rt, hits, misses)
		}(ti)
		time.Sleep(gap)
	}
	wg.Wait()

	elapsed := time.Since(start)
	report := &TenantReport{
		Sent:    sent,
		Errors:  errs,
		Series:  recorder.Series(),
		Tenants: outcomes,
	}
	if elapsed > 0 {
		report.AchievedRate = float64(sent) / elapsed.Seconds()
	}
	return report, nil
}
