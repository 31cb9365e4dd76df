// Package webtier implements the web/application tier of the paper's
// testbed (Section V-A): each web request names a set of KV pairs; the
// handler multi-gets them from the Memcached tier through the
// consistent-hashing client, serves misses from the database (sleeping the
// modeled access latency in real-time mode), inserts fetched pairs back
// into the cache, and reports the request's response time as the average
// of its KV fetch latencies.
package webtier

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/store"
)

// ErrBadConfig reports invalid construction parameters.
var ErrBadConfig = errors.New("webtier: invalid configuration")

// Result summarizes one handled web request.
type Result struct {
	// RT is the response time: the mean of the per-KV latencies.
	RT time.Duration
	// Hits and Misses count cache outcomes among the KV fetches.
	Hits   int
	Misses int
}

// Handler serves web requests against a cache cluster and database.
type Handler struct {
	cluster *client.Cluster
	db      *store.DB

	// sleepDB, when true, actually sleeps the modeled DB latency (real-
	// time mode); otherwise the latency is only accounted.
	sleepDB bool

	mu       sync.Mutex
	handled  uint64
	kvHits   uint64
	kvMisses uint64
}

// Option configures a Handler.
type Option interface {
	apply(*options)
}

type options struct {
	sleepDB bool
}

type sleepOption bool

func (o sleepOption) apply(opts *options) { opts.sleepDB = bool(o) }

// WithRealSleep makes the handler sleep the modeled DB latency, for live
// TCP deployments where wall time is the experiment clock.
func WithRealSleep() Option { return sleepOption(true) }

// New creates a Handler.
func New(cluster *client.Cluster, db *store.DB, opts ...Option) (*Handler, error) {
	if cluster == nil || db == nil {
		return nil, fmt.Errorf("%w: nil cluster or db", ErrBadConfig)
	}
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	return &Handler{
		cluster: cluster,
		db:      db,
		sleepDB: o.sleepDB,
	}, nil
}

// Handle serves one web request for the given keys.
func (h *Handler) Handle(keys []string) (Result, error) {
	if len(keys) == 0 {
		return Result{}, fmt.Errorf("%w: empty key set", ErrBadConfig)
	}
	var out Result
	t0 := time.Now()
	values, err := h.cluster.MultiGet(keys)
	if err != nil {
		return Result{}, fmt.Errorf("webtier: %w", err)
	}
	cacheLat := time.Since(t0)

	var total time.Duration
	perKVCache := cacheLat / time.Duration(len(keys))
	for _, key := range keys {
		if _, ok := values[key]; ok {
			out.Hits++
			total += perKVCache
			continue
		}
		out.Misses++
		value, dbLat, err := h.db.Get(key)
		if err != nil {
			return Result{}, fmt.Errorf("webtier: db: %w", err)
		}
		if h.sleepDB {
			time.Sleep(dbLat)
		}
		total += perKVCache + dbLat
		// Write the pair back, as the paper's client does; a racing set
		// failure only costs a future miss.
		_ = h.cluster.Set(key, value)
	}
	out.RT = total / time.Duration(len(keys))

	h.mu.Lock()
	h.handled++
	h.kvHits += uint64(out.Hits)
	h.kvMisses += uint64(out.Misses)
	h.mu.Unlock()
	return out, nil
}

// Stats reports cumulative counters.
func (h *Handler) Stats() (handled, kvHits, kvMisses uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handled, h.kvHits, h.kvMisses
}
