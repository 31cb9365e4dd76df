// Package sim is the discrete-event testbed that reproduces the ElMem
// paper's evaluation (Section V) in virtual time: a multi-tier deployment
// of load generator → web tier → Memcached tier → database, replaying the
// paper's demand traces, executing scaling actions under one of the four
// migration policies, and recording the per-second hit-rate and 95%ile-RT
// series of Figures 2, 6, and 8.
//
// Everything real is reused — the caches are cache.Cache instances, the
// migration runs the actual Agent/Master code paths, the policies are the
// real implementations — only the transport and the passage of time are
// simulated. All randomness is seeded; runs are deterministic.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/autoscaler"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("sim: invalid configuration")

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
	Policy policy.Kind
	// Nodes is the initial Memcached tier size; it must match the trace's
	// first action FromNodes to reproduce the paper's figures.
	Nodes int
	// NodePages is each node's memory budget in 1 MiB pages.
	NodePages int
	// Keys is the dataset size.
	Keys uint64
	// MaxValueSize bounds value sizes in bytes (default 128). Smaller
	// bounds mean fewer slab classes, which matters at the simulator's
	// scaled-down node sizes: every populated class needs at least one
	// 1 MiB page per node, where a real 4 GB node has 4096 pages covering
	// every class.
	MaxValueSize int
	// ZipfS is the key-popularity skew.
	ZipfS float64
	// PeakRate is the web-request arrival rate (req/s) at normalized
	// demand 1.0.
	PeakRate float64
	// KVPerRequest is the multi-get size per web request (paper: ~10).
	KVPerRequest int
	// CacheHitLatency is one KV fetch from Memcached.
	CacheHitLatency time.Duration
	// DBModel is the database latency/capacity model (r_DB knee).
	DBModel store.LatencyModel
	// MigrationDelay is ElMem/Naive's pre-scaling migration window and
	// CacheScale's secondary lifetime (paper: ~2 minutes).
	MigrationDelay time.Duration
	// Seed drives all randomness.
	Seed int64
	// AutoScale, when set, derives scaling actions from the stack-distance
	// AutoScaler instead of the trace's scripted actions.
	AutoScale *autoscaler.Config
	// AutoScalePeriod is the AutoScaler decision interval (default 60s).
	AutoScalePeriod time.Duration
}

// DefaultConfig returns the calibrated small-scale configuration used by
// the benches: a 10-node tier whose capacity, dataset, and DB knee are the
// paper's testbed scaled down ~20x so a full trace replays in seconds.
func DefaultConfig(tr *trace.Trace) Config {
	return Config{
		Trace:           tr,
		Duration:        8 * time.Minute,
		Warmup:          3 * time.Minute,
		Policy:          policy.ElMem,
		Nodes:           10,
		NodePages:       4,
		Keys:            120_000,
		MaxValueSize:    128,
		ZipfS:           0.99,
		PeakRate:        1200,
		KVPerRequest:    10,
		CacheHitLatency: 500 * time.Microsecond,
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
	case c.KVPerRequest < 1:
		return fmt.Errorf("%w: KVPerRequest %d", ErrBadConfig, c.KVPerRequest)
	case c.CacheHitLatency <= 0:
		return fmt.Errorf("%w: CacheHitLatency %v", ErrBadConfig, c.CacheHitLatency)
	case c.Duration <= 0:
		return fmt.Errorf("%w: Duration %v", ErrBadConfig, c.Duration)
	}
	if err := c.DBModel.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Policy < policy.Baseline || c.Policy > policy.ElMem {
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
	Policy policy.Kind
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

// vclock is the virtual time source all components share. Every read
// advances it one nanosecond, so the order of reads decides the MRU stamps
// items get. The sim's Masters therefore run their phases with one worker:
// concurrent phase goroutines would read the clock in scheduler order and
// make a run irreproducible. Time is virtual, so one worker costs only wall
// time. The mutex stays: phase operations still run on taskgroup
// goroutines, one at a time.
type vclock struct {
	mu sync.Mutex
	t  time.Time
	// seq breaks MRU-timestamp ties between KV touches at one instant.
	seq int64
}

func (v *vclock) Now() time.Time {
	// Each observation nudges time forward one nanosecond so MRU
	// timestamps are strictly ordered within a node, like a real clock's
	// monotonic reads.
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	return v.t.Add(time.Duration(v.seq))
}

func (v *vclock) set(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.t) {
		v.t = t
		v.seq = 0
	}
}

// simulation holds one run's live state.
type simulation struct {
	cfg Config
	rng *rand.Rand
	clk *vclock

	reg     *agent.Registry
	master  *core.Master
	members []string
	ring    *hashring.Ring

	db        *store.DB
	gen       *workload.Generator
	recorder  *metrics.Recorder
	secondary *policy.Secondary // CacheScale transition state

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
	at   time.Time
	kind string // "decide", "execute", "secondary-expire", "autoscale"
	// decide payload:
	action trace.ScalingAction
	// execute payload:
	exec func() error
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &simulation{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		clk: &vclock{t: time.Unix(1_700_000_000, 0)},
		reg: agent.NewRegistry(),
	}
	s.result.Policy = cfg.Policy

	// Build the initial tier.
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := s.newNode(); err != nil {
			return nil, err
		}
	}
	s.members = s.reg.Nodes()
	ring, err := hashring.New(s.members)
	if err != nil {
		return nil, err
	}
	s.ring = ring

	master, err := core.NewMaster(
		core.RegistryDirectory{Registry: s.reg},
		s.members,
		core.WithClock(s.clk.Now),
		core.WithWorkerLimit(1), // see vclock: one worker keeps runs reproducible
	)
	if err != nil {
		return nil, err
	}
	s.master = master

	maxVal := cfg.MaxValueSize
	if maxVal <= 0 {
		maxVal = 128
	}
	dataset, err := store.NewDataset(cfg.Keys, store.WithSizeBounds(1, maxVal))
	if err != nil {
		return nil, err
	}
	db, err := store.NewDB(dataset, cfg.DBModel, store.WithClock(s.clk.Now))
	if err != nil {
		return nil, err
	}
	s.db = db

	gen, err := workload.NewGenerator(s.rng, cfg.Keys, workload.WithZipfS(cfg.ZipfS))
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

	s.start = s.clk.t.Add(cfg.Warmup)
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
		period := s.cfg.AutoScalePeriod
		if period <= 0 {
			period = time.Minute
		}
		for at := s.start.Add(period); at.Before(s.start.Add(s.cfg.Duration)); at = at.Add(period) {
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
	now := s.clk.t
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
			s.clk.set(ev.at)
			if err := s.handleEvent(ev); err != nil {
				return err
			}
		}
		if next.After(end) {
			break
		}
		now = next
		s.clk.set(now)
		s.processRequest(now)
	}
	return nil
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
	for i := 0; i < s.cfg.KVPerRequest; i++ {
		req := s.gen.Next()
		if s.scaler != nil {
			s.scaler.Record(req.Key)
		}
		s.kvSinceTick++
		lat, hit := s.fetchKV(req, now)
		total += lat
		if hit {
			hits++
		} else {
			misses++
		}
	}
	rt := total / time.Duration(s.cfg.KVPerRequest)
	if !now.Before(s.start) {
		s.recorder.RecordRequest(now, rt, hits, misses)
	}
}

// fetchKV resolves one KV get against the tier.
func (s *simulation) fetchKV(req workload.Request, now time.Time) (time.Duration, bool) {
	owner, err := s.ring.Get(req.Key)
	if err != nil {
		return s.dbFetch(req)
	}
	ag, err := s.reg.Get(owner)
	if err != nil {
		return s.dbFetch(req)
	}
	if _, err := ag.Cache().Get(req.Key); err == nil {
		return s.cfg.CacheHitLatency, true
	}

	// Primary miss: CacheScale consults the secondary during transition.
	if s.secondary.Active(now) {
		if value, ok := s.secondary.Lookup(s.reg, req.Key, now); ok {
			_ = ag.Cache().Set(req.Key, value)
			return 2 * s.cfg.CacheHitLatency, true
		}
	}

	lat, _ := s.dbFetch(req)
	value, err := s.db.Dataset().Value(req.Key)
	if err == nil {
		_ = ag.Cache().Set(req.Key, value)
	}
	return s.cfg.CacheHitLatency + lat, false
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
		if s.secondary != nil {
			for _, node := range s.secondary.Nodes {
				s.reg.Deregister(node)
			}
			s.secondary = nil
		}
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

// decideScaleIn executes the policy-specific scale-in path.
func (s *simulation) decideScaleIn(x int) error {
	now := s.clk.t
	decisionAt := now.Sub(s.start)
	current := len(s.members)
	if x >= current {
		return fmt.Errorf("%w: scale in %d of %d", ErrBadConfig, x, current)
	}

	switch s.cfg.Policy {
	case policy.Baseline:
		// Same node choice as ElMem (Q2), no migration (Q3): flip now and
		// drop the retiring nodes cold.
		retiring, err := s.master.SelectRetiring(context.Background(), x)
		if err != nil {
			return err
		}
		retained := subtract(s.members, retiring)
		s.flipMembership(retained)
		for _, node := range retiring {
			s.reg.Deregister(node)
		}
		s.result.Actions = append(s.result.Actions, ExecutedAction{
			DecisionAt: decisionAt,
			ExecutedAt: decisionAt,
			FromNodes:  current,
			ToNodes:    current - x,
			Retiring:   retiring,
		})
		return nil

	case policy.ElMem:
		retiring, err := s.master.SelectRetiring(context.Background(), x)
		if err != nil {
			return err
		}
		s.schedule(pendingEvent{
			at:   now.Add(s.cfg.MigrationDelay),
			kind: "execute",
			exec: func() error {
				report, err := s.master.ScaleInNodes(context.Background(), retiring)
				if err != nil {
					return err
				}
				s.route(report.Members)
				s.result.Actions = append(s.result.Actions, ExecutedAction{
					DecisionAt:    decisionAt,
					ExecutedAt:    s.clk.t.Sub(s.start),
					FromNodes:     current,
					ToNodes:       current - x,
					Retiring:      retiring,
					ItemsMigrated: report.ItemsMigrated,
				})
				for _, node := range retiring {
					s.reg.Deregister(node)
				}
				return nil
			},
		})
		return nil

	case policy.Naive:
		retiring, err := policy.PickRandomRetiring(s.rng, s.members, x)
		if err != nil {
			return err
		}
		fraction := float64(current-x) / float64(current)
		s.schedule(pendingEvent{
			at:   now.Add(s.cfg.MigrationDelay),
			kind: "execute",
			exec: func() error {
				retained := subtract(s.members, retiring)
				round := uint64(s.clk.Now().UnixNano())
				moved, err := policy.NaiveScaleIn(context.Background(), s.reg, round, retiring, retained, fraction)
				if err != nil {
					return err
				}
				s.flipMembership(retained)
				s.result.Actions = append(s.result.Actions, ExecutedAction{
					DecisionAt:    decisionAt,
					ExecutedAt:    s.clk.t.Sub(s.start),
					FromNodes:     current,
					ToNodes:       current - x,
					Retiring:      retiring,
					ItemsMigrated: moved,
				})
				for _, node := range retiring {
					s.reg.Deregister(node)
				}
				return nil
			},
		})
		return nil

	case policy.CacheScale:
		retiring, err := policy.PickRandomRetiring(s.rng, s.members, x)
		if err != nil {
			return err
		}
		retained := subtract(s.members, retiring)
		sec, err := policy.NewSecondary(retiring, now.Add(s.cfg.MigrationDelay))
		if err != nil {
			return err
		}
		s.secondary = sec
		s.flipMembership(retained)
		s.schedule(pendingEvent{at: sec.Deadline, kind: "secondary-expire"})
		s.result.Actions = append(s.result.Actions, ExecutedAction{
			DecisionAt: decisionAt,
			ExecutedAt: decisionAt,
			FromNodes:  current,
			ToNodes:    current - x,
			Retiring:   retiring,
		})
		return nil
	}
	return fmt.Errorf("%w: policy %v", ErrBadConfig, s.cfg.Policy)
}

// decideScaleOut executes the policy-specific scale-out path.
func (s *simulation) decideScaleOut(x int) error {
	now := s.clk.t
	decisionAt := now.Sub(s.start)
	current := len(s.members)

	added := make([]string, 0, x)
	for i := 0; i < x; i++ {
		name, err := s.newNode()
		if err != nil {
			return err
		}
		added = append(added, name)
	}

	if s.cfg.Policy == policy.ElMem {
		s.schedule(pendingEvent{
			at:   now.Add(s.cfg.MigrationDelay),
			kind: "execute",
			exec: func() error {
				report, err := s.master.ScaleOut(context.Background(), added)
				if err != nil {
					return err
				}
				s.route(report.Members)
				s.result.Actions = append(s.result.Actions, ExecutedAction{
					DecisionAt:    decisionAt,
					ExecutedAt:    s.clk.t.Sub(s.start),
					FromNodes:     current,
					ToNodes:       current + x,
					Added:         added,
					ItemsMigrated: report.ItemsMigrated,
				})
				return nil
			},
		})
		return nil
	}

	// Baseline / Naive / CacheScale: cold scale-out, immediate flip.
	full := append(append([]string(nil), s.members...), added...)
	s.flipMembership(full)
	s.result.Actions = append(s.result.Actions, ExecutedAction{
		DecisionAt: decisionAt,
		ExecutedAt: decisionAt,
		FromNodes:  current,
		ToNodes:    current + x,
		Added:      added,
	})
	return nil
}

// autoscaleTick runs one AutoScaler decision (Section III-B closed loop).
func (s *simulation) autoscaleTick() error {
	period := s.cfg.AutoScalePeriod
	if period <= 0 {
		period = time.Minute
	}
	kvRate := float64(s.kvSinceTick) / period.Seconds()
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

// flipMembership applies a membership change outside the Master's flow
// (ElMem's actions run through the Master, which keeps its own).
func (s *simulation) flipMembership(members []string) {
	sort.Strings(members)
	s.route(members)
	s.syncMaster(members)
}

// route points request routing at members. ElMem's exec closures call it
// with the Master's report once the action returns: the simulation is
// single-threaded, so no request is served in between.
func (s *simulation) route(members []string) {
	s.members = append([]string(nil), members...)
	if r, err := hashring.New(members); err == nil {
		s.ring = r
	}
}

// syncMaster rebuilds the Master over the new membership so later actions
// score the right node set. (Naive/CacheScale bypass the Master's flip.)
func (s *simulation) syncMaster(members []string) {
	master, err := core.NewMaster(
		core.RegistryDirectory{Registry: s.reg},
		members,
		core.WithClock(s.clk.Now),
		core.WithWorkerLimit(1), // see vclock: one worker keeps runs reproducible
	)
	if err != nil {
		return
	}
	s.master = master
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
