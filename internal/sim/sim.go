// Package sim is the discrete-event testbed that reproduces the ElMem
// paper's evaluation (Section V) in virtual time: a multi-tier deployment
// of load generator → web tier → Memcached tier → database, replaying the
// paper's demand traces, executing scaling actions under one of the four
// migration policies, and recording the per-second hit-rate and 95%ile-RT
// series of Figures 2, 6, and 8.
//
// Everything real is reused — the caches are cache.Cache instances and
// every migration runs the actual Agent/Master code paths — only the
// transport and the passage of time are simulated. All randomness is
// seeded; runs are deterministic.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/autoscaler"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("sim: invalid configuration")

// The workload and tier constants every run shares.
const (
	// KVPerRequest is the multi-get size per web request (paper: ~10).
	KVPerRequest = 10
	// maxValueSize bounds value sizes in bytes. A small bound means few
	// slab classes, which matters at the simulator's scaled-down node
	// sizes: every populated class needs at least one 1 MiB page per
	// node, where a real 4 GB node has 4096 pages covering every class.
	maxValueSize = 128
	// zipfS is the key-popularity skew.
	zipfS = 0.99
	// cacheHitLatency is one KV fetch from Memcached.
	cacheHitLatency = 500 * time.Microsecond
	// autoScalePeriod is the AutoScaler decision interval.
	autoScalePeriod = 30 * time.Second
)

// Config parameterizes one simulation run.
type Config struct {
	// Trace supplies the normalized demand series and scaling actions.
	Trace *trace.Trace
	// Duration compresses the trace to this virtual length (default: the
	// trace's own duration). Action times scale proportionally.
	Duration time.Duration
	// Warmup is extra virtual time before the trace starts, used to fill
	// the caches; it is not recorded.
	Warmup time.Duration
	// Policy selects the migration strategy.
	Policy Policy
	// Nodes is the initial Memcached tier size; it must match the trace's
	// first action FromNodes to reproduce the paper's figures.
	Nodes int
	// NodePages is each node's memory budget in 1 MiB pages.
	NodePages int
	// Keys is the dataset size.
	Keys uint64
	// PeakRate is the web-request arrival rate (req/s) at normalized
	// demand 1.0.
	PeakRate float64
	// DBModel is the database latency/capacity model (r_DB knee).
	DBModel store.LatencyModel
	// MigrationDelay is ElMem/Naive's pre-scaling migration window and
	// CacheScale's secondary lifetime (paper: ~2 minutes).
	MigrationDelay time.Duration
	// Seed drives all randomness.
	Seed int64
	// AutoScale, when set, derives scaling actions from the stack-distance
	// AutoScaler, every autoScalePeriod, instead of the trace's scripted
	// actions.
	AutoScale *autoscaler.Config
}

// DefaultConfig returns the calibrated small-scale configuration used by
// the benches: a 10-node tier whose capacity, dataset, and DB knee are the
// paper's testbed scaled down ~20x so a full trace replays in seconds.
func DefaultConfig(tr *trace.Trace) Config {
	return Config{
		Trace:     tr,
		Duration:  8 * time.Minute,
		Warmup:    3 * time.Minute,
		Policy:    ElMem,
		Nodes:     10,
		NodePages: 4,
		Keys:      120_000,
		PeakRate:  1200,
		DBModel: store.LatencyModel{
			Base:     1200 * time.Microsecond,
			Capacity: 450,
			Max:      2 * time.Second,
		},
		MigrationDelay: 20 * time.Second,
		Seed:           1,
	}
}

func (c Config) validate() error {
	switch {
	case c.Trace == nil || len(c.Trace.Points) == 0:
		return fmt.Errorf("%w: missing trace", ErrBadConfig)
	case c.Nodes < 2:
		return fmt.Errorf("%w: need >= 2 nodes, got %d", ErrBadConfig, c.Nodes)
	case c.NodePages < 1:
		return fmt.Errorf("%w: NodePages %d", ErrBadConfig, c.NodePages)
	case c.Keys == 0:
		return fmt.Errorf("%w: empty keyspace", ErrBadConfig)
	case c.PeakRate <= 0:
		return fmt.Errorf("%w: PeakRate %v", ErrBadConfig, c.PeakRate)
	case c.Duration <= 0:
		return fmt.Errorf("%w: Duration %v", ErrBadConfig, c.Duration)
	}
	if err := c.DBModel.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Policy < Baseline || c.Policy > ElMem {
		return fmt.Errorf("%w: policy %d", ErrBadConfig, int(c.Policy))
	}
	return nil
}

// ExecutedAction records one scaling action as it played out.
type ExecutedAction struct {
	// DecisionAt is when the scaling decision landed (trace time).
	DecisionAt time.Duration
	// ExecutedAt is when the membership flipped.
	ExecutedAt time.Duration
	// FromNodes and ToNodes give tier sizes around the action.
	FromNodes int
	ToNodes   int
	// Retiring / Added name the affected nodes.
	Retiring []string
	Added    []string
	// ItemsMigrated counts KV pairs moved before the flip.
	ItemsMigrated int
}

// Result is one run's output.
type Result struct {
	// Policy echoes the migration policy.
	Policy Policy
	// Series is the per-second hit rate and 95%ile RT (Figures 2/6/8).
	Series []metrics.SecondStat
	// Actions lists the executed scaling actions.
	Actions []ExecutedAction
	// TotalRequests is the number of completed web requests.
	TotalRequests uint64
	// DBReads is the number of database accesses.
	DBReads uint64
	// FinalMembers is the tier membership at the end.
	FinalMembers []string
}

// simulation holds one run's live state.
type simulation struct {
	cfg Config
	rng *rand.Rand

	// clk is the virtual clock all components share. It ticks one
	// nanosecond per read, so MRU stamps are strictly ordered within a
	// node and the order of reads decides the stamps items get. The sim's
	// Masters therefore run their phases with one worker: concurrent phase
	// goroutines would read the clock in scheduler order and make a run
	// irreproducible. Time is virtual, so one worker costs only wall time.
	clk *clock.Fake
	now time.Time // the virtual instant being handled: clk's base

	reg     *agent.Registry
	master  *core.Master
	members []string
	ring    *hashring.Ring

	db       *store.DB
	gen      *workload.Generator
	recorder *metrics.Recorder

	// CacheScale's secondary: the retired nodes' caches, which serve
	// primary misses until the secondary-expire event drops them.
	secondaryRing  *hashring.Ring
	secondaryNodes map[string]*cache.Cache

	scaler      *autoscaler.AutoScaler
	kvSinceTick uint64

	start    time.Time // virtual time at trace offset 0 (after warmup)
	nextNode int
	result   Result
	pending  []pendingEvent
	dbReads  uint64
}

// pendingEvent is a scheduled non-arrival event.
type pendingEvent struct {
	at     time.Time
	kind   string              // "decide", "execute", "secondary-expire", "autoscale"
	action trace.ScalingAction // decide payload
	exec   func() error        // execute payload
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	epoch := time.Unix(1_700_000_000, 0)
	s := &simulation{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		clk: clock.NewFake(epoch, time.Nanosecond),
		now: epoch,
		reg: agent.NewRegistry(),
	}
	s.result.Policy = cfg.Policy

	// Build the initial tier.
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := s.newNode(); err != nil {
			return nil, err
		}
	}
	if err := s.setMembers(s.reg.Nodes()); err != nil {
		return nil, err
	}

	dataset, err := store.NewDataset(cfg.Keys, store.WithSizeBounds(1, maxValueSize))
	if err != nil {
		return nil, err
	}
	db, err := store.NewDB(dataset, cfg.DBModel, store.WithClock(s.clk.Now))
	if err != nil {
		return nil, err
	}
	s.db = db

	gen, err := workload.NewGenerator(s.rng, cfg.Keys, workload.WithZipfS(zipfS))
	if err != nil {
		return nil, err
	}
	s.gen = gen

	if cfg.AutoScale != nil {
		sc, err := autoscaler.New(*cfg.AutoScale)
		if err != nil {
			return nil, err
		}
		s.scaler = sc
	}

	s.start = s.now.Add(cfg.Warmup)
	s.recorder = metrics.NewRecorder(s.start)
	s.scheduleActions()
	if err := s.loop(); err != nil {
		return nil, err
	}

	s.result.Series = s.recorder.Series()
	s.result.TotalRequests = uint64(countRequests(s.result.Series))
	s.result.DBReads = s.dbReads
	s.result.FinalMembers = append([]string(nil), s.members...)
	return &s.result, nil
}

func countRequests(series []metrics.SecondStat) int {
	total := 0
	for _, st := range series {
		total += st.Requests
	}
	return total
}

// newNode creates, registers, and names a fresh cache node.
func (s *simulation) newNode() (string, error) {
	name := fmt.Sprintf("node-%02d", s.nextNode)
	s.nextNode++
	cc, err := cache.New(int64(s.cfg.NodePages)*cache.PageSize, cache.WithClock(s.clk.Now))
	if err != nil {
		return "", err
	}
	a, err := agent.New(name, cc, s.reg)
	if err != nil {
		return "", err
	}
	s.reg.Register(a)
	return name, nil
}

// scheduleActions converts the trace's scripted actions (compressed to
// cfg.Duration) into decision events, or schedules AutoScaler ticks.
func (s *simulation) scheduleActions() {
	if s.scaler != nil {
		for at := s.start.Add(autoScalePeriod); at.Before(s.start.Add(s.cfg.Duration)); at = at.Add(autoScalePeriod) {
			s.pending = append(s.pending, pendingEvent{at: at, kind: "autoscale"})
		}
		return
	}
	scale := float64(s.cfg.Duration) / float64(s.cfg.Trace.Duration())
	for _, a := range s.cfg.Trace.Actions {
		at := s.start.Add(time.Duration(float64(a.At) * scale))
		s.pending = append(s.pending, pendingEvent{at: at, kind: "decide", action: a})
	}
	sort.Slice(s.pending, func(i, j int) bool { return s.pending[i].at.Before(s.pending[j].at) })
}

// loop is the event loop: exponential arrivals interleaved with scheduled
// events until warmup+duration elapse.
func (s *simulation) loop() error {
	end := s.start.Add(s.cfg.Duration)
	now := s.now
	for now.Before(end) {
		rate := s.currentRate(now)
		gap := time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		next := now.Add(gap)

		// Fire any scheduled events due before the next arrival.
		for len(s.pending) > 0 && !s.pending[0].at.After(next) {
			ev := s.pending[0]
			s.pending = s.pending[1:]
			s.advance(ev.at)
			if err := s.handleEvent(ev); err != nil {
				return err
			}
		}
		if next.After(end) {
			break
		}
		now = next
		s.advance(now)
		s.processRequest(now)
	}
	return nil
}

// advance moves virtual time forward to t, never back, and restarts the
// clock's per-read ticks there.
func (s *simulation) advance(t time.Time) {
	if t.After(s.now) {
		s.now = t
	}
	s.clk.Set(t)
}

// currentRate maps virtual time to the web-request arrival rate.
func (s *simulation) currentRate(now time.Time) float64 {
	var frac float64
	if now.Before(s.start) {
		frac = 0 // warmup runs at the trace's initial rate
	} else {
		frac = float64(now.Sub(s.start)) / float64(s.cfg.Duration)
	}
	traceAt := time.Duration(frac * float64(s.cfg.Trace.Duration()))
	rate := s.cfg.Trace.RateAt(traceAt) * s.cfg.PeakRate
	if rate < 1 {
		rate = 1
	}
	return rate
}

// processRequest simulates one web request: a multi-get of KVPerRequest
// keys, misses served by the DB and inserted back into the cache. The
// response time is the mean of the KV fetch latencies (Section V-A).
func (s *simulation) processRequest(now time.Time) {
	var (
		total  time.Duration
		hits   int
		misses int
	)
	for i := 0; i < KVPerRequest; i++ {
		req := s.gen.Next()
		if s.scaler != nil {
			s.scaler.Record(req.Key)
		}
		s.kvSinceTick++
		lat, hit := s.fetchKV(req)
		total += lat
		if hit {
			hits++
		} else {
			misses++
		}
	}
	rt := total / KVPerRequest
	if !now.Before(s.start) {
		s.recorder.RecordRequest(now, rt, hits, misses)
	}
}

// fetchKV resolves one KV get against the tier.
func (s *simulation) fetchKV(req workload.Request) (time.Duration, bool) {
	owner, err := s.ring.Get(req.Key)
	if err != nil {
		return s.dbFetch(req)
	}
	ag, err := s.reg.Get(owner)
	if err != nil {
		return s.dbFetch(req)
	}
	if _, err := ag.Cache().Get(req.Key); err == nil {
		return cacheHitLatency, true
	}

	// Primary miss: CacheScale consults the secondary during transition.
	if value, ok := s.secondaryTake(req.Key); ok {
		_ = ag.Cache().Set(req.Key, value)
		return 2 * cacheHitLatency, true
	}

	lat, _ := s.dbFetch(req)
	value, err := s.db.Dataset().Value(req.Key)
	if err == nil {
		_ = ag.Cache().Set(req.Key, value)
	}
	return cacheHitLatency + lat, false
}

// armSecondary makes the retiring nodes' caches CacheScale's secondary
// until the given time. It reads them from the registry, so it runs
// before retire drops the nodes.
func (s *simulation) armSecondary(retiring []string, until time.Time) error {
	ring, err := hashring.New(retiring)
	if err != nil {
		return err
	}
	nodes := make(map[string]*cache.Cache, len(retiring))
	for _, node := range retiring {
		ag, err := s.reg.Get(node)
		if err != nil {
			return err
		}
		nodes[node] = ag.Cache()
	}
	s.secondaryRing, s.secondaryNodes = ring, nodes
	s.schedule(pendingEvent{at: until, kind: "secondary-expire"})
	return nil
}

// secondaryTake tries a primary miss in CacheScale's secondary. A hit
// leaves the secondary node, and the caller sets it on the primary: the
// demand-driven migration of CacheScale. The secondary-expire event fires
// before any request at or after the deadline, so an armed secondary is a
// live one.
func (s *simulation) secondaryTake(key string) ([]byte, bool) {
	if s.secondaryRing == nil {
		return nil, false
	}
	owner, err := s.secondaryRing.Get(key)
	if err != nil {
		return nil, false
	}
	c := s.secondaryNodes[owner]
	value, ok := c.Peek(key)
	if !ok {
		return nil, false
	}
	_ = c.Delete(key)
	return value, true
}

// dbFetch reads a key from the database tier at the modeled latency.
func (s *simulation) dbFetch(req workload.Request) (time.Duration, bool) {
	s.dbReads++
	_, lat, err := s.db.Get(req.Key)
	if err != nil {
		return s.cfg.DBModel.Base, false
	}
	return lat, false
}

// handleEvent dispatches one scheduled event.
func (s *simulation) handleEvent(ev pendingEvent) error {
	switch ev.kind {
	case "decide":
		return s.decide(ev.action)
	case "execute":
		return ev.exec()
	case "secondary-expire":
		s.secondaryRing, s.secondaryNodes = nil, nil
		return nil
	case "autoscale":
		return s.autoscaleTick()
	default:
		return fmt.Errorf("sim: unknown event %q", ev.kind)
	}
}

// schedule inserts an event keeping the pending list sorted.
func (s *simulation) schedule(ev pendingEvent) {
	s.pending = append(s.pending, ev)
	sort.SliceStable(s.pending, func(i, j int) bool { return s.pending[i].at.Before(s.pending[j].at) })
}

// decide handles a scaling decision at the current virtual time.
func (s *simulation) decide(a trace.ScalingAction) error {
	current := len(s.members)
	target := a.ToNodes
	if target == current {
		return nil
	}
	if target < current {
		return s.decideScaleIn(current - target)
	}
	return s.decideScaleOut(target - current)
}

// decideScaleIn retires x nodes. Baseline and ElMem choose them by score
// (Q2), Naive and CacheScale at random. Baseline then flips at once, and
// CacheScale flips at once behind a secondary; ElMem and Naive migrate
// MigrationDelay later and then flip.
func (s *simulation) decideScaleIn(x int) error {
	now := s.now
	current := len(s.members)
	if x >= current {
		return fmt.Errorf("%w: scale in %d of %d", ErrBadConfig, x, current)
	}

	var retiring []string
	if s.cfg.Policy == Baseline || s.cfg.Policy == ElMem {
		var err error
		if retiring, err = s.master.SelectRetiring(context.Background(), x); err != nil {
			return err
		}
	} else {
		retiring = pickRandomRetiring(s.rng, s.members, x)
	}
	action := ExecutedAction{
		DecisionAt: now.Sub(s.start),
		ExecutedAt: now.Sub(s.start),
		FromNodes:  current,
		ToNodes:    current - x,
		Retiring:   retiring,
	}

	switch s.cfg.Policy {
	case Baseline:
		return s.retire(action)
	case CacheScale:
		if err := s.armSecondary(retiring, now.Add(s.cfg.MigrationDelay)); err != nil {
			return err
		}
		return s.retire(action)
	}
	fraction := float64(current-x) / float64(current)
	s.schedule(pendingEvent{
		at:   now.Add(s.cfg.MigrationDelay),
		kind: "execute",
		exec: func() error {
			var err error
			if s.cfg.Policy == ElMem {
				var report *core.ScaleReport
				if report, err = s.master.ScaleInNodes(context.Background(), retiring); err == nil {
					action.ItemsMigrated = report.ItemsMigrated
				}
			} else {
				round := uint64(s.clk.Now().UnixNano())
				action.ItemsMigrated, err = naiveScaleIn(context.Background(), s.reg, round,
					retiring, subtract(s.members, retiring), fraction)
			}
			if err != nil {
				return err
			}
			action.ExecutedAt = s.now.Sub(s.start)
			return s.retire(action)
		},
	})
	return nil
}

// retire ends a scale-in: requests route to the nodes left, the retiring
// nodes leave the registry, and the action is recorded.
func (s *simulation) retire(a ExecutedAction) error {
	if err := s.setMembers(subtract(s.members, a.Retiring)); err != nil {
		return err
	}
	for _, node := range a.Retiring {
		s.reg.Deregister(node)
	}
	s.result.Actions = append(s.result.Actions, a)
	return nil
}

// decideScaleOut adds x cold nodes. ElMem migrates to them
// MigrationDelay later and then flips; the other policies flip at once.
func (s *simulation) decideScaleOut(x int) error {
	now := s.now
	current := len(s.members)
	action := ExecutedAction{
		DecisionAt: now.Sub(s.start),
		ExecutedAt: now.Sub(s.start),
		FromNodes:  current,
		ToNodes:    current + x,
	}
	for i := 0; i < x; i++ {
		name, err := s.newNode()
		if err != nil {
			return err
		}
		action.Added = append(action.Added, name)
	}

	if s.cfg.Policy != ElMem {
		s.result.Actions = append(s.result.Actions, action)
		return s.setMembers(append(append([]string(nil), s.members...), action.Added...))
	}
	s.schedule(pendingEvent{
		at:   now.Add(s.cfg.MigrationDelay),
		kind: "execute",
		exec: func() error {
			report, err := s.master.ScaleOut(context.Background(), action.Added)
			if err != nil {
				return err
			}
			action.ItemsMigrated = report.ItemsMigrated
			action.ExecutedAt = s.now.Sub(s.start)
			s.result.Actions = append(s.result.Actions, action)
			return s.setMembers(report.Members)
		},
	})
	return nil
}

// autoscaleTick runs one AutoScaler decision (Section III-B closed loop).
func (s *simulation) autoscaleTick() error {
	kvRate := float64(s.kvSinceTick) / autoScalePeriod.Seconds()
	s.kvSinceTick = 0
	d, err := s.scaler.Decide(kvRate, len(s.members))
	if err != nil && !errors.Is(err, autoscaler.ErrInfeasible) {
		return err
	}
	s.scaler.Reset()
	if d.TargetNodes == len(s.members) {
		return nil
	}
	return s.decide(trace.ScalingAction{FromNodes: len(s.members), ToNodes: d.TargetNodes})
}

// setMembers points request routing and the Master at members, so later
// actions score the right node set. An ElMem action has already flipped
// its Master's membership; the simulation is single-threaded, so no
// request is served before routing follows.
func (s *simulation) setMembers(members []string) error {
	sort.Strings(members)
	ring, err := hashring.New(members)
	if err != nil {
		return err
	}
	master, err := core.NewMaster(
		core.RegistryDirectory{Registry: s.reg},
		members,
		core.WithClock(s.clk.Now),
		core.WithWorkerLimit(1), // see clk: one worker keeps runs reproducible
	)
	if err != nil {
		return err
	}
	s.members, s.ring, s.master = append([]string(nil), members...), ring, master
	return nil
}

// subtract returns members minus drop, preserving order.
func subtract(members, drop []string) []string {
	dropSet := make(map[string]struct{}, len(drop))
	for _, d := range drop {
		dropSet[d] = struct{}{}
	}
	var out []string
	for _, m := range members {
		if _, ok := dropSet[m]; !ok {
			out = append(out, m)
		}
	}
	return out
}
