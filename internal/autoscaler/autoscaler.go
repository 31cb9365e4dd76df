// Package autoscaler implements ElMem's scaling decision logic (Section
// III-B, "When and how much to scale?").
//
// Given the database tier's maximum sustainable request rate r_DB and the
// incoming request rate r, Eq. (1) of the paper bounds the minimum cache
// hit rate:
//
//	r·(1 − p_min) < r_DB   ⇒   p_min > 1 − r_DB/r
//
// The AutoScaler then consults a stack-distance profile of the recent
// request history to find the memory that achieves p_min, and converts the
// difference from current capacity into a node count delta.
package autoscaler

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stackdist"
)

var (
	// ErrInfeasible is returned when no finite cache achieves the target
	// hit rate (the database alone cannot serve the load).
	ErrInfeasible = errors.New("autoscaler: target hit rate unattainable at any cache size")
	// ErrBadConfig is returned for invalid constructor parameters.
	ErrBadConfig = errors.New("autoscaler: invalid configuration")
)

// MinHitRate evaluates Eq. (1): the smallest Memcached hit rate that keeps
// database load under dbCapacity req/s at an incoming rate of r req/s.
// A non-positive result means the database alone can carry the load.
func MinHitRate(r, dbCapacity float64) float64 {
	if r <= 0 {
		return 0
	}
	p := 1 - dbCapacity/r
	if p < 0 {
		return 0
	}
	return p
}

// Decision is the AutoScaler's output, relayed as a hint to the Master.
type Decision struct {
	// TargetNodes is the recommended Memcached tier size.
	TargetNodes int
	// CurrentNodes echoes the tier size at decision time.
	CurrentNodes int
	// MinHitRate is the Eq. (1) bound that produced the target.
	MinHitRate float64
	// RequiredItems is the cache size (items, cluster-wide) that achieves
	// MinHitRate on the recent trace.
	RequiredItems int
	// Rate is the request rate the decision was computed for.
	Rate float64
}

// Config parameterizes the AutoScaler.
type Config struct {
	// DBCapacity is r_DB: the max request rate the database sustains
	// within SLO (the paper profiles ~40,000 req/s for its ardb setup).
	DBCapacity float64
	// ItemsPerNode is each node's cache capacity in items (memory capacity
	// normalized by mean item footprint).
	ItemsPerNode int
	// MinNodes and MaxNodes clamp the recommendation.
	MinNodes int
	MaxNodes int
}

func (c Config) validate() error {
	if c.DBCapacity <= 0 {
		return fmt.Errorf("%w: DBCapacity %v", ErrBadConfig, c.DBCapacity)
	}
	if c.ItemsPerNode <= 0 {
		return fmt.Errorf("%w: ItemsPerNode %d", ErrBadConfig, c.ItemsPerNode)
	}
	if c.MinNodes < 1 || c.MaxNodes < c.MinNodes {
		return fmt.Errorf("%w: node bounds [%d, %d]", ErrBadConfig, c.MinNodes, c.MaxNodes)
	}
	return nil
}

// decide is the sizing path Decide and DecideTenants share: the Eq. (1)
// bound for rate r, the capacity itemsFor reads off a hit-rate curve for
// it, and that capacity as a node count clamped to [MinNodes, MaxNodes].
// itemsFor reports ok=false, with the best attainable hit rate, when no
// capacity reaches the target.
func (c Config) decide(r float64, currentNodes int, itemsFor func(target float64) (items int, maxHit float64, ok bool)) (Decision, error) {
	if currentNodes < 1 {
		return Decision{}, fmt.Errorf("%w: currentNodes %d", ErrBadConfig, currentNodes)
	}
	pMin := MinHitRate(r, c.DBCapacity)
	target := min(pMin, 0.999)
	d := Decision{CurrentNodes: currentNodes, MinHitRate: pMin, Rate: r}
	if target <= 0 {
		// The database alone suffices; hold the floor.
		d.TargetNodes = c.MinNodes
		return d, nil
	}
	items, maxHit, ok := itemsFor(target)
	if !ok {
		// Not even an infinite cache reaches the bound on this history —
		// scale to the ceiling and report the condition.
		d.TargetNodes = c.MaxNodes
		return d, fmt.Errorf("%w: p_min %.3f, max attainable %.3f",
			ErrInfeasible, target, maxHit)
	}
	d.RequiredItems = items
	nodes := int(math.Ceil(float64(items) / float64(c.ItemsPerNode)))
	d.TargetNodes = min(max(nodes, c.MinNodes), c.MaxNodes)
	return d, nil
}

// AutoScaler sizes the Memcached tier with the paper's stack-distance
// policy. It samples the request stream (Record) and periodically answers
// Decide. It is not safe for concurrent use; in the paper the AutoScaler
// runs single-threaded on one web server.
type AutoScaler struct {
	cfg      Config
	profiler *stackdist.Profiler
}

// New creates an AutoScaler.
func New(cfg Config) (*AutoScaler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &AutoScaler{cfg: cfg, profiler: stackdist.NewProfiler()}, nil
}

// Record samples one requested key. The paper samples at a single web
// server, which suffices because the load balancer spreads requests evenly.
func (a *AutoScaler) Record(key string) {
	a.profiler.Record(key)
}

// Reset discards the accumulated history; call it after each decision
// period so decisions track the *recent* trace (Section III-B uses the
// recent history of requests as the representative trace).
func (a *AutoScaler) Reset() {
	a.profiler = stackdist.NewProfiler()
}

// Decide computes the scaling decision for the measured request rate r
// (req/s) and current tier size.
func (a *AutoScaler) Decide(r float64, currentNodes int) (Decision, error) {
	return a.cfg.decide(r, currentNodes, func(target float64) (int, float64, bool) {
		curve := a.profiler.Curve()
		items, ok := curve.ItemsForHitRate(target)
		return items, curve.MaxHitRate(), ok
	})
}
