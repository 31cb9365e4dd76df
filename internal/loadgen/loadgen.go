// Package loadgen is the httperf analog of the paper's testbed (Section
// V-A): an open-loop load generator firing web requests at a handler with
// exponential inter-arrival times whose mean rate follows a demand trace
// in real time. It also measures the achieved request rate, the signal
// the AutoScaler reads at the load balancer (Section III-B).
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

// Config parameterizes a load generation run.
type Config struct {
	// Trace modulates the request rate; nil means constant PeakRate.
	Trace *trace.Trace
	// Duration bounds the run (and compresses the trace to it).
	Duration time.Duration
	// PeakRate is the request rate (req/s) at normalized demand 1.0.
	PeakRate float64
	// KVPerRequest is the multi-get size.
	KVPerRequest int
	// Keys is the keyspace size.
	Keys uint64
	// ZipfS is the popularity skew (default 0.99).
	ZipfS float64
	// Seed drives randomness.
	Seed int64
}

func (c Config) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("%w: Duration %v", ErrBadConfig, c.Duration)
	case c.PeakRate <= 0:
		return fmt.Errorf("%w: PeakRate %v", ErrBadConfig, c.PeakRate)
	case c.KVPerRequest < 1:
		return fmt.Errorf("%w: KVPerRequest %d", ErrBadConfig, c.KVPerRequest)
	case c.Keys == 0:
		return fmt.Errorf("%w: zero keyspace", ErrBadConfig)
	}
	return nil
}

// Report is the outcome of a run.
type Report struct {
	// Sent and Errors count issued requests and handler failures.
	Sent   uint64
	Errors uint64
	// Series is the per-second hit rate and P95 of completed requests.
	Series []metrics.SecondStat
	// AchievedRate is Sent / Duration.
	AchievedRate float64
}

// Run drives the handler until the duration elapses or ctx is cancelled.
func Run(ctx context.Context, cfg Config, h Handler) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadConfig)
	}
	zipfS := cfg.ZipfS
	if zipfS == 0 {
		zipfS = 0.99
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen, err := workload.NewGenerator(rng, cfg.Keys, workload.WithZipfS(zipfS))
	if err != nil {
		return nil, err
	}

	start := time.Now()
	recorder := metrics.NewRecorder(start)
	var (
		mu     sync.Mutex // guards recorder and counters
		sent   uint64
		errs   uint64
		wg     sync.WaitGroup
		tokens = make(chan struct{}, maxInFlight)
	)

	deadline := start.Add(cfg.Duration)
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			break
		}
		rate := cfg.PeakRate
		if cfg.Trace != nil {
			frac := float64(now.Sub(start)) / float64(cfg.Duration)
			at := time.Duration(frac * float64(cfg.Trace.Duration()))
			rate = cfg.Trace.RateAt(at) * cfg.PeakRate
			if rate < 1 {
				rate = 1
			}
		}
		mu.Lock()
		batch := gen.NextMulti(cfg.KVPerRequest)
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		mu.Unlock()
		keys := make([]string, len(batch))
		for i, r := range batch {
			keys[i] = r.Key
		}

		tokens <- struct{}{} // open-loop with a bounded in-flight cap
		wg.Add(1)
		go func() {
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
			recorder.RecordRequest(time.Now(), rt, hits, misses)
		}()
		time.Sleep(gap)
	}
	wg.Wait()

	elapsed := time.Since(start)
	report := &Report{
		Sent:   sent,
		Errors: errs,
		Series: recorder.Series(),
	}
	if elapsed > 0 {
		report.AchievedRate = float64(sent) / elapsed.Seconds()
	}
	return report, nil
}
