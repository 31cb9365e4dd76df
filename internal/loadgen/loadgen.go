// Package loadgen is the httperf analog of the paper's testbed (Section
// V-A): an open-loop load generator firing web requests at a handler with
// exponential inter-arrival times whose mean rate follows a demand trace
// in real time. It also measures the achieved request rate, the signal
// the AutoScaler reads at the load balancer (Section III-B).
//
// Each web request belongs to one tenant, drawn by request-rate share, and
// fetches keys from that tenant's own keyspace ("<name>/k...."), Zipf
// skew, and footprint. A single-tenant run is one unnamed tenant, whose
// keys carry no prefix. A tenant may carry a mid-run phase shift — its
// footprint multiplies at ShiftFrac of the run — which is the "noisy
// neighbor" scenario the memory arbiter exists for: one tenant's working
// set explodes and a static partition either starves it or lets it
// trample everyone else.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBadConfig reports invalid construction parameters.
var ErrBadConfig = errors.New("loadgen: invalid configuration")

// maxInFlight bounds a run's in-flight requests.
const maxInFlight = 64

// Handler consumes one web request's keys; loadgen measures its outcome.
type Handler interface {
	Handle(keys []string) (RT time.Duration, hits, misses int, err error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(keys []string) (time.Duration, int, int, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(keys []string) (time.Duration, int, int, error) {
	return f(keys)
}

// TenantSpec describes one tenant's workload.
type TenantSpec struct {
	// Name prefixes every key as "<Name>/"; only a lone tenant may leave
	// it empty.
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

// Config parameterizes a load generation run.
type Config struct {
	// Trace modulates the request rate; nil means constant PeakRate.
	Trace *trace.Trace
	// Duration bounds the run (and compresses the trace to it).
	Duration time.Duration
	// PeakRate is the combined request rate (req/s) across tenants at
	// normalized demand 1.0.
	PeakRate float64
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

func (c Config) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("%w: Duration %v", ErrBadConfig, c.Duration)
	case c.PeakRate <= 0:
		return fmt.Errorf("%w: PeakRate %v", ErrBadConfig, c.PeakRate)
	case c.KVPerRequest < 1:
		return fmt.Errorf("%w: KVPerRequest %d", ErrBadConfig, c.KVPerRequest)
	case len(c.Tenants) == 0:
		return fmt.Errorf("%w: no tenants", ErrBadConfig)
	}
	for _, t := range c.Tenants {
		switch {
		case t.Name == "" && len(c.Tenants) > 1:
			return fmt.Errorf("%w: unnamed tenant in a mix", ErrBadConfig)
		case t.Keys == 0:
			return fmt.Errorf("%w: tenant %q has zero keyspace", ErrBadConfig, t.Name)
		case t.Share <= 0:
			return fmt.Errorf("%w: tenant %q share %v", ErrBadConfig, t.Name, t.Share)
		}
	}
	return nil
}

// TenantOutcome is one tenant's side of a Report.
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

// Report is the outcome of a run.
type Report struct {
	// Sent and Errors count issued requests and handler failures.
	Sent   uint64
	Errors uint64
	// Series is the per-second aggregate hit rate and P95 of completed
	// requests.
	Series []metrics.SecondStat
	// AchievedRate is Sent / Duration.
	AchievedRate float64
	// Tenants has one outcome per configured tenant, same order.
	Tenants []TenantOutcome
}

// tenantGenerator draws a tenant's keys from n keys at its skew.
func tenantGenerator(t TenantSpec, seed int64, n uint64) (*workload.Generator, error) {
	s := t.ZipfS
	if s == 0 {
		s = 0.99
	}
	g, err := workload.NewGenerator(rand.New(rand.NewSource(seed)), n, workload.WithZipfS(s))
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	return g, nil
}

// Run drives the handler until the duration elapses or ctx is cancelled.
func Run(ctx context.Context, cfg Config, h Handler) (*Report, error) {
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
		g, err := tenantGenerator(t, cfg.Seed+int64(i)+1, t.Keys)
		if err != nil {
			return nil, err
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
		mu      sync.Mutex // guards the generators, recorder and counters
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
				g, err := tenantGenerator(t, cfg.Seed+int64(i)+1001, max(uint64(float64(t.Keys)*t.Shift), 1))
				if err != nil {
					return nil, err
				}
				mu.Lock()
				gens[i] = g
				mu.Unlock()
			}
		}
		rate := cfg.PeakRate
		if cfg.Trace != nil {
			frac := float64(now.Sub(start)) / float64(cfg.Duration)
			at := time.Duration(frac * float64(cfg.Trace.Duration()))
			rate = max(cfg.Trace.RateAt(at)*cfg.PeakRate, 1)
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
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		mu.Unlock()
		keys := make([]string, len(batch))
		prefix := ""
		if name := cfg.Tenants[ti].Name; name != "" {
			prefix = name + "/"
		}
		for i, r := range batch {
			keys[i] = prefix + r.Key
		}

		tokens <- struct{}{} // open-loop with a bounded in-flight cap
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
	report := &Report{
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
