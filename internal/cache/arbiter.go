package cache

import (
	"sync"
	"time"

	"repro/internal/stackdist"
)

// The Memshare-style arbitration loop: per-tenant miss-ratio curves are
// estimated online from sampled accesses (MIMIR bucketed stack distances,
// stackdist.MimirH), and every cycle pages move from the tenant with the
// least to lose to the tenant with the most to gain, measured as marginal
// hit rate per page:
//
//	gain(t) = rate_t × (H_t(items_t + ipp_t) − H_t(items_t))
//	loss(t) = rate_t × (H_t(items_t) − H_t(items_t − ipp_t))
//
// where H_t is the tenant's hit-rate curve, rate_t its request rate over
// the last cycle, and ipp_t its current items-per-page density. A move
// happens only when the receiver's gain clears the donor's loss by the
// hysteresis margin, and at most MaxMovesPerCycle pages move per cycle, so
// the partition converges instead of thrashing on noisy estimates.

// ArbiterConfig tunes the arbitration loop; zero values take defaults.
type ArbiterConfig struct {
	// Interval is the cycle period for Start (default 1s).
	Interval time.Duration
	// MaxMovesPerCycle caps page moves per cycle (default 4).
	MaxMovesPerCycle int
	// Hysteresis is the relative margin a receiver's marginal gain must
	// clear the donor's marginal loss by before a page moves (default 0.2).
	Hysteresis float64
	// SampleBuffer is the per-shard access-sample capacity between drains
	// (default 4096; overflow drops samples, never blocks the hot path).
	SampleBuffer int
	// Buckets and BucketCap size each tenant's MIMIR estimator (defaults
	// 32 × 256: ~8k tracked keys per tenant, fixed footprint).
	Buckets   int
	BucketCap int
}

func (cfg *ArbiterConfig) defaults() {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MaxMovesPerCycle <= 0 {
		cfg.MaxMovesPerCycle = 4
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 0.2
	}
	if cfg.SampleBuffer <= 0 {
		cfg.SampleBuffer = 4096
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 32
	}
	if cfg.BucketCap <= 0 {
		cfg.BucketCap = 256
	}
}

// Arbiter owns the MRC estimators and the page re-partitioning loop.
// RunOnce is safe to call directly (tests and benchmarks drive cycles
// deterministically); Start runs it on a ticker.
type Arbiter struct {
	c   *Cache
	cfg ArbiterConfig

	mu        sync.Mutex
	est       map[uint16]*stackdist.MimirH
	prevOps   map[uint16]uint64
	cycles    uint64
	moves     uint64
	lastMoves int

	stop chan struct{}
	done chan struct{}
}

// NewArbiter creates an arbiter for the cache and arms access sampling.
func NewArbiter(c *Cache, cfg ArbiterConfig) *Arbiter {
	cfg.defaults()
	c.enableSampling(cfg.SampleBuffer)
	return &Arbiter{
		c:       c,
		cfg:     cfg,
		est:     make(map[uint16]*stackdist.MimirH),
		prevOps: make(map[uint16]uint64),
	}
}

// Start launches the periodic loop; Stop terminates it.
func (a *Arbiter) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stop != nil {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop(a.stop, a.done)
}

// Stop halts the periodic loop, blocking until the current cycle finishes.
func (a *Arbiter) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (a *Arbiter) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			a.RunOnce()
		}
	}
}

// Moves reports the lifetime page-move count.
func (a *Arbiter) Moves() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.moves }

// tenantGrad is one tenant's state for a cycle's move decisions.
type tenantGrad struct {
	id         uint16
	gain, loss float64
	pages      int
	reserved   int
	quota, cap int
	items      int
	rate       float64
	curve      *stackdist.Curve
	ipp        int
}

// RunOnce drains samples into the estimators, recomputes every tenant's
// marginal gradients, and moves up to MaxMovesPerCycle pages from the
// lowest-loss donor to the highest-gain receiver. It returns the number of
// pages moved.
func (a *Arbiter) RunOnce() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cycles++

	a.c.drainSamples(func(tid uint16, h uint64) {
		m := a.est[tid]
		if m == nil {
			m, _ = stackdist.NewMimirH(a.cfg.Buckets, a.cfg.BucketCap)
			a.est[tid] = m
		}
		m.Record(h)
	})

	stats := a.c.TenantStats()
	grads := make([]*tenantGrad, 0, len(stats))
	totalItems, totalPages := 0, 0
	for _, st := range stats {
		totalItems += st.Items
		totalPages += st.Pages
	}
	avgIPP := 1
	if totalPages > 0 && totalItems > 0 {
		avgIPP = max(totalItems/totalPages, 1)
	}
	for _, st := range stats {
		g := &tenantGrad{
			id: st.ID, pages: st.Pages, reserved: st.Reserved,
			quota: st.Quota, cap: st.MaxPages, items: st.Items,
		}
		ops := st.Hits + st.Misses
		g.rate = float64(ops - a.prevOps[st.ID])
		a.prevOps[st.ID] = ops
		if m := a.est[st.ID]; m != nil {
			g.curve = m.Curve()
		}
		g.ipp = avgIPP
		if st.Pages > 0 && st.Items > 0 {
			g.ipp = max(st.Items/st.Pages, 1)
		}
		a.gradients(g)
		grads = append(grads, g)
	}

	// free is the pool's unassigned-page headroom: while it lasts, a
	// receiver only needs allowance (donating unused quota is free); once
	// the pool is fully assigned, growth requires a donor whose quota cut
	// physically reclaims a page.
	a.c.pool.mu.Lock()
	free := a.c.pool.max
	a.c.pool.mu.Unlock()
	for _, st := range stats {
		free -= st.Pages
	}

	moved := 0
	for moved < a.cfg.MaxMovesPerCycle {
		var donor, recv *tenantGrad
		for _, g := range grads {
			if g.quota > g.reserved && (free > 0 || g.pages >= g.quota) &&
				(donor == nil || g.loss < donor.loss) {
				donor = g
			}
			if g.quota < g.cap && (recv == nil || g.gain > recv.gain) {
				recv = g
			}
		}
		if donor == nil || recv == nil || donor.id == recv.id {
			break
		}
		if recv.gain <= donor.loss*(1+a.cfg.Hysteresis) || recv.gain <= 0 {
			break
		}
		if !a.c.StealPage(donor.id, recv.id) {
			break
		}
		moved++
		a.moves++
		donor.quota--
		if donor.pages > donor.quota {
			// The shrunken quota forced a physical reclaim; donating
			// unused allowance leaves the donor's residents untouched.
			donor.pages--
			donor.items = max(donor.items-donor.ipp, 0)
			free++
		}
		recv.quota++
		recv.pages++
		recv.items += recv.ipp
		free--
		a.gradients(donor)
		a.gradients(recv)
	}
	a.lastMoves = moved
	return moved
}

// gradients recomputes a tenant's marginal gain/loss from its curve at its
// current size.
func (a *Arbiter) gradients(g *tenantGrad) {
	g.gain, g.loss = 0, 0
	if g.curve == nil || g.rate <= 0 {
		return
	}
	h := g.curve.HitRate(g.items)
	g.gain = g.rate * (g.curve.HitRate(g.items+g.ipp) - h)
	// Donating allowance the tenant isn't using costs nothing; only a
	// quota cut that forces a reclaim loses resident items.
	if g.pages >= g.quota && g.pages > 0 {
		g.loss = g.rate * (h - g.curve.HitRate(max(g.items-g.ipp, 0)))
	}
}
