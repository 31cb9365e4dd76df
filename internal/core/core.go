// Package core implements the ElMem Master (Section III-A): the
// lightweight central controller that receives autoscaling hints, scores
// nodes to pick which to retire (Section III-C), orchestrates the
// three-phase pre-scaling data migration (Section III-D), and hands the
// client-visible ownership table over to the new membership as migration
// completes.
//
// Migration is orchestrated as a concurrent, context-aware pipeline: the
// phase barriers of the paper are kept (phase k+1 starts only after every
// node finished phase k), but inside each phase the per-node operations fan
// out concurrently under a worker bound, with bounded retry for transient
// RPC failures and fail-fast cancellation — one terminal failure cancels
// all in-flight work before the membership flip.
//
// The Master is transport-agnostic: it drives agents through the
// MasterAgent interface, satisfied in-process by *agent.Agent and over TCP
// by the agentrpc client.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

var (
	// ErrNotMember is returned when an operation names a node outside the
	// current membership.
	ErrNotMember = errors.New("core: node is not a member")
	// ErrBadScale is returned for impossible scaling requests.
	ErrBadScale = errors.New("core: invalid scaling request")
)

// MasterAgent is the Master's view of one node's Agent. Every operation
// takes the orchestration context: implementations must observe
// cancellation (abort between batches, propagate deadlines to the wire)
// so a failed migration stops moving data before the membership flip.
type MasterAgent interface {
	// Node returns the agent's node name.
	Node() string
	// Score answers the III-C scoring query.
	Score(ctx context.Context) agent.ScoreReport
	// SendMetadata runs migration phase 1 on a sender.
	SendMetadata(ctx context.Context, round uint64, retained []string) error
	// ComputeTakes runs migration phase 2 on a receiver.
	ComputeTakes(ctx context.Context, round uint64) (agent.Takes, error)
	// SendData runs migration phase 3 on a sender, reporting what the push
	// moved (pairs, bytes, resume skips, duration).
	SendData(ctx context.Context, round uint64, target string, takes map[int]int) (agent.SendStats, error)
	// Release drops, on a sender that stays a member, the items a settled
	// table gave to other nodes, returning how many it dropped.
	Release(ctx context.Context, members []string) (int, error)
}

var _ MasterAgent = (*agent.Agent)(nil)

// Directory resolves node names to their agents.
type Directory interface {
	Agent(node string) (MasterAgent, error)
}

// RegistryDirectory adapts the in-process agent.Registry to Directory.
type RegistryDirectory struct {
	// Registry is the underlying in-process transport.
	Registry *agent.Registry
}

// Agent implements Directory.
func (d RegistryDirectory) Agent(node string) (MasterAgent, error) {
	return d.Registry.Get(node)
}

// NodeScore is one node's III-C score: the page-weighted average of its
// per-slab median MRU timestamps. Colder (older) scores sort first, so the
// head of a sorted slice is the cheapest node to retire.
type NodeScore struct {
	// Node names the scored node.
	Node string
	// Score is Σ_b median_ts(b)·w_b in Unix nanoseconds; smaller = colder.
	Score float64
	// Items is the node's resident item count.
	Items int
}

// PhaseTiming records one migration phase's wall duration, feeding the
// Section V-B2 overhead breakdown.
type PhaseTiming struct {
	// Phase names the step (score, metadata, fusecache, data, membership).
	Phase string
	// Duration is the measured wall time.
	Duration time.Duration
}

// NodeOpTiming records one per-node operation inside a migration phase:
// the wall time the operation took, how many attempts it needed, and its
// terminal error if it failed. The experiments harness aggregates these
// into the paper's migration-time figures for real parallel runs.
type NodeOpTiming struct {
	// Phase names the phase ("metadata", "fusecache", "data", "release").
	Phase string
	// Node is the node the operation ran on (the sender for "data").
	Node string
	// Target is the receiving node for "data" operations, "" otherwise.
	Target string
	// Duration is the operation's wall time including retries.
	Duration time.Duration
	// Attempts counts tries (1 = succeeded first try, 0 = never started
	// because the phase was already cancelled).
	Attempts int
	// Err is the terminal error string, "" on success.
	Err string
}

// NodeDataStat is one sender's (or sender→target pair's) data-plane
// accounting for the report: migration throughput is BytesMoved (or
// Pairs) over Duration.
type NodeDataStat struct {
	// Node is the sending node; Target the receiver.
	Node   string
	Target string
	// Pairs, Resumed, Unapplied, BytesMoved, WireBytes and Duration
	// mirror agent.SendStats for the operation.
	Pairs      int
	Resumed    int
	Unapplied  int
	BytesMoved int64
	WireBytes  int64
	Duration   time.Duration
}

// ScaleReport summarizes one scaling action. On a mid-phase failure the
// report is returned alongside the error with the phases that did complete,
// so callers can see what was already migrated; Aborted names the phase
// that failed.
type ScaleReport struct {
	// Direction is "in" or "out".
	Direction string
	// Retiring or Added lists the affected nodes.
	Retiring []string
	Added    []string
	// ItemsMigrated counts KV pairs moved (resumed pairs included: they
	// were moved by an earlier attempt of this same action).
	ItemsMigrated int
	// ItemsUnapplied counts shipped pairs the receivers did not apply
	// (refused for want of a chunk, or stale), summed over Data.
	ItemsUnapplied int
	// ItemsReleased counts the items surviving senders dropped once the
	// table settled: everything they no longer own, shipped or not.
	ItemsReleased int
	// Data holds the per-sender data-plane stats, in deterministic
	// (node, target) order.
	Data []NodeDataStat
	// Members is the membership after the action.
	Members []string
	// Timings holds the per-phase breakdown in execution order.
	Timings []PhaseTiming
	// NodeTimings holds the per-node, per-phase breakdown in deterministic
	// (phase, node, target) order regardless of scheduling.
	NodeTimings []NodeOpTiming
	// Retries counts retried per-node operations across all phases.
	Retries int
	// Aborted names the phase that terminated the action early, "" when
	// the action completed.
	Aborted string
	// Segments counts the 1/1024 arcs of the hash circle that hold a key
	// changing owner in the handover; HandoverWaves is 1 once the table
	// settles (one announcement flips every moving key); and
	// OwnershipVersion the settled table's version after the action.
	Segments         int
	HandoverWaves    int
	OwnershipVersion uint64
}

// DefaultWorkerLimit bounds per-phase concurrent agent operations unless
// WithWorkerLimit overrides it.
const DefaultWorkerLimit = 8

// Master orchestrates ElMem scaling.
type Master struct {
	dir Directory
	now func() time.Time

	// stop, when set, turns a retired node off after scale-in.
	stop func(node string) error

	workers   int
	retry     taskgroup.Backoff
	phaseHook func(phase string)

	// act serializes scaling actions: an action's release runs after its
	// table settles, and must not overlap the next action's handover. It
	// guards round, the latest action's ID.
	act   sync.Mutex
	round uint64

	mu        sync.Mutex
	members   []string
	table     *hashring.Table
	nextSub   uint64
	listeners []subscription
}

// subscription is one registered listener. The id is what its cancel func
// removes it by: listener values need not be comparable.
type subscription struct {
	id uint64
	l  OwnershipListener
}

// Option configures a Master.
type Option interface {
	apply(*masterOptions)
}

type masterOptions struct {
	now       func() time.Time
	stop      func(node string) error
	workers   int
	retry     taskgroup.Backoff
	phaseHook func(phase string)
}

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(opts *masterOptions) { opts.now = o.now }

// WithClock injects the Master's time source for phase timings. The clock
// is called from concurrent phase workers, so it must be safe for
// concurrent use.
func WithClock(now func() time.Time) Option { return clockOption{now: now} }

type stopOption struct{ stop func(node string) error }

func (o stopOption) apply(opts *masterOptions) { opts.stop = o.stop }

// WithNodeStopper sets the callback that turns a retired node off.
func WithNodeStopper(stop func(node string) error) Option { return stopOption{stop: stop} }

type workerOption int

func (o workerOption) apply(opts *masterOptions) { opts.workers = int(o) }

// WithWorkerLimit bounds how many per-node operations one migration phase
// runs concurrently (default DefaultWorkerLimit). 1 serializes the phases
// exactly like the original sequential orchestration.
func WithWorkerLimit(n int) Option { return workerOption(n) }

type retryOption taskgroup.Backoff

func (o retryOption) apply(opts *masterOptions) { opts.retry = taskgroup.Backoff(o) }

// WithRetry sets the per-operation retry policy for transient agent/RPC
// failures. The default is 3 attempts with 10ms initial backoff. Errors
// marked taskgroup.Permanent (remote application errors) are never
// retried.
func WithRetry(b taskgroup.Backoff) Option { return retryOption(b) }

// NewMaster creates a Master over the initial membership.
func NewMaster(dir Directory, members []string, opts ...Option) (*Master, error) {
	if dir == nil {
		return nil, errors.New("core: nil directory")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: empty initial membership", ErrBadScale)
	}
	o := masterOptions{
		now:     time.Now,
		workers: DefaultWorkerLimit,
		retry:   taskgroup.Backoff{Attempts: 3, Delay: 10 * time.Millisecond},
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.workers < 1 {
		o.workers = 1
	}
	m := &Master{
		dir:       dir,
		now:       o.now,
		stop:      o.stop,
		workers:   o.workers,
		retry:     o.retry,
		phaseHook: o.phaseHook,
	}
	m.members = append(m.members, members...)
	sort.Strings(m.members)
	table, err := hashring.NewTable(m.members)
	if err != nil {
		return nil, fmt.Errorf("core: ownership table: %w", err)
	}
	m.table = table
	return m, nil
}

// Members returns the current membership, sorted.
func (m *Master) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.members))
	copy(out, m.members)
	return out
}

// Subscribe registers an ownership listener and immediately delivers the
// current table — in the paper, the Master "informs the clients on the web
// servers about the change in Memcached membership", and the table is how.
// The returned cancel drops the listener again: the Master holds (and
// keeps calling) a listener until then, so whatever goes away before the
// Master does — a retired node — must cancel.
func (m *Master) Subscribe(l OwnershipListener) (cancel func()) {
	m.mu.Lock()
	m.nextSub++
	id := m.nextSub
	m.listeners = append(m.listeners, subscription{id, l})
	t := m.table
	m.mu.Unlock()
	l.OwnershipChanged(t)
	return func() { m.unsubscribe(id) }
}

// unsubscribe drops the listener registered under id.
func (m *Master) unsubscribe(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = slices.DeleteFunc(m.listeners, func(s subscription) bool { return s.id == id })
}

// ListenerCounts reports how many listeners are subscribed
// (observability; tests pin listener lifetime with it).
func (m *Master) ListenerCounts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.listeners)
}

// ScoreNodes queries every member's Agent concurrently and returns scores
// sorted coldest-first (Section III-C).
func (m *Master) ScoreNodes(ctx context.Context) ([]NodeScore, error) {
	members := m.Members()
	scores := make([]NodeScore, len(members))
	g, gctx := taskgroup.WithContext(ctx)
	g.SetLimit(m.workers)
	for i, node := range members {
		i, node := i, node
		g.Go(func() error {
			ag, err := m.dir.Agent(node)
			if err != nil {
				return fmt.Errorf("score %s: %w", node, err)
			}
			rep := ag.Score(gctx)
			scores[i] = NodeScore{
				Node:  node,
				Score: weightedMedianScore(rep),
				Items: rep.Items,
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Score != scores[j].Score {
			return scores[i].Score < scores[j].Score
		}
		return scores[i].Node < scores[j].Node
	})
	return scores, nil
}

// weightedMedianScore computes Σ_b median_ts(b)·w_b. An empty node scores
// zero — the coldest possible, which is correct: it is free to retire.
func weightedMedianScore(rep agent.ScoreReport) float64 {
	var score float64
	for classID, ts := range rep.Medians {
		score += float64(ts) * rep.Weights[classID]
	}
	return score
}

// SelectRetiring picks the x coldest nodes by weighted median score.
func (m *Master) SelectRetiring(ctx context.Context, x int) ([]string, error) {
	if x < 1 {
		return nil, fmt.Errorf("%w: x=%d", ErrBadScale, x)
	}
	members := m.Members()
	if x >= len(members) {
		return nil, fmt.Errorf("%w: cannot retire %d of %d nodes", ErrBadScale, x, len(members))
	}
	scores, err := m.ScoreNodes(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]string, x)
	for i := 0; i < x; i++ {
		out[i] = scores[i].Node
	}
	sort.Strings(out)
	return out, nil
}

// ScaleIn retires x nodes with the full ElMem flow: score → select →
// three-phase migration → membership flip → node shutdown. On a mid-phase
// failure the partial report is returned alongside the error.
func (m *Master) ScaleIn(ctx context.Context, x int) (*ScaleReport, error) {
	t0 := m.now()
	retiring, err := m.SelectRetiring(ctx, x)
	if err != nil {
		return nil, err
	}
	scoreDur := m.now().Sub(t0)
	report, err := m.ScaleInNodes(ctx, retiring)
	if report != nil {
		report.Timings = append([]PhaseTiming{{Phase: "score", Duration: scoreDur}}, report.Timings...)
	}
	return report, err
}

// phaseOp is one per-node operation inside a phase.
type phaseOp struct {
	node   string
	target string
	run    func(ctx context.Context) error
}

// runPhase fans the phase's operations out concurrently under the worker
// bound, retrying transient failures, and records wall and per-node
// timings on the report. The first terminal error cancels the remaining
// operations (fail-fast), marks the report aborted in this phase and is
// returned; the phase barrier is the Wait.
func (m *Master) runPhase(ctx context.Context, phase string, report *ScaleReport, ops []phaseOp) error {
	err := m.fanOut(ctx, phase, report, ops, true)
	if err != nil {
		report.Aborted = phase
	}
	return err
}

// fanOut runs a phase's operations as runPhase describes. With failFast
// false every operation runs to its own end and fanOut returns nil: the
// failures are left in the report's per-node timings only.
func (m *Master) fanOut(ctx context.Context, phase string, report *ScaleReport, ops []phaseOp, failFast bool) error {
	t0 := m.now()
	g, gctx := taskgroup.WithContext(ctx)
	g.SetLimit(m.workers)
	timings := make([]NodeOpTiming, len(ops))
	for i, op := range ops {
		i, op := i, op
		g.Go(func() error {
			start := m.now()
			attempts, err := taskgroup.Retry(gctx, m.retry, op.run)
			timings[i] = NodeOpTiming{
				Phase:    phase,
				Node:     op.node,
				Target:   op.target,
				Duration: m.now().Sub(start),
				Attempts: attempts,
			}
			if err != nil {
				timings[i].Err = err.Error()
				if !failFast {
					return nil
				}
				if op.target != "" {
					return fmt.Errorf("phase %s %s→%s: %w", phase, op.node, op.target, err)
				}
				return fmt.Errorf("phase %s on %s: %w", phase, op.node, err)
			}
			return nil
		})
	}
	err := g.Wait()
	for i := range timings {
		if timings[i].Attempts > 1 {
			report.Retries += timings[i].Attempts - 1
		}
	}
	report.NodeTimings = append(report.NodeTimings, timings...)
	report.Timings = append(report.Timings, PhaseTiming{Phase: phase, Duration: m.now().Sub(t0)})
	return err
}

// ScaleInNodes retires an explicit node set (used by Fig 7's node-choice
// sweep and by policies that override scoring). On a mid-phase failure the
// partial report — with the phases that did complete and what was already
// migrated — is returned alongside the error, and the membership is left
// untouched.
func (m *Master) ScaleInNodes(ctx context.Context, retiring []string) (*ScaleReport, error) {
	m.act.Lock()
	defer m.act.Unlock()
	members := m.Members()
	retSet := make(map[string]struct{}, len(retiring))
	for _, n := range retiring {
		if !slices.Contains(members, n) {
			return nil, fmt.Errorf("%w: %q", ErrNotMember, n)
		}
		retSet[n] = struct{}{}
	}
	if len(retiring) == 0 || len(retiring) >= len(members) {
		return nil, fmt.Errorf("%w: retire %d of %d", ErrBadScale, len(retiring), len(members))
	}
	// Sorted working copies keep phase fan-out, reports, and logs
	// deterministic regardless of input order or goroutine scheduling.
	retiring = append([]string(nil), retiring...)
	sort.Strings(retiring)
	var retained []string
	for _, n := range members {
		if _, ok := retSet[n]; !ok {
			retained = append(retained, n)
		}
	}
	report := &ScaleReport{Direction: "in", Retiring: retiring}
	return report, m.migrate(ctx, report, retiring, retained)
}

// ScaleOut adds already-started nodes to the tier (Section III-D4). The
// existing members send the newcomers their hash share through the same
// three phases a scale-in runs, so in the paper's "rare case" that the
// share outgrows a newcomer, FuseCache keeps the globally hottest items it
// can hold. On a failure before the table settles the partial report is
// returned alongside the error and the membership is left untouched.
func (m *Master) ScaleOut(ctx context.Context, newNodes []string) (*ScaleReport, error) {
	if len(newNodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes to add", ErrBadScale)
	}
	m.act.Lock()
	defer m.act.Unlock()
	members := m.Members()
	newNodes = append([]string(nil), newNodes...)
	sort.Strings(newNodes)
	for _, n := range newNodes {
		if slices.Contains(members, n) {
			return nil, fmt.Errorf("%w: %q already a member", ErrBadScale, n)
		}
		if _, err := m.dir.Agent(n); err != nil {
			return nil, fmt.Errorf("scale out: new node %s unreachable: %w", n, err)
		}
	}
	full := append(append([]string(nil), members...), newNodes...)
	sort.Strings(full)
	report := &ScaleReport{Direction: "out", Added: newNodes}
	return report, m.migrate(ctx, report, members, full)
}

// migrate is the one migration pipeline (Section III-D), run by both
// scaling directions: scale-in passes (retiring, retained), scale-out
// (members, full). It announces the handover toward newMembers, then runs
// phase 1 on the senders, phase 2 (FuseCache) on every receiver — a new
// member that is not a sender — and phase 3 on the senders, then
// settles the table and adopts newMembers. Senders that leave are stopped;
// senders that stay release what the settled table moved off them. No key
// leaves a surviving node before the table settles, so a failure up to
// then rolls the table back with every key still on its old owner.
//
// A release that still fails after retries leaves the action settled and
// adopted: the report names "release" as Aborted and the error is
// returned.
func (m *Master) migrate(ctx context.Context, report *ScaleReport, senders, newMembers []string) error {
	round := m.nextRound()
	oldMembers := m.Members()
	var receivers, survivors []string
	for _, n := range newMembers {
		if slices.Contains(senders, n) {
			survivors = append(survivors, n)
		} else {
			receivers = append(receivers, n)
		}
	}
	// abort rolls the table back and ends the round on every node the
	// action involved.
	abort := func(err error) error {
		m.rollbackHandover()
		m.endRound(ctx, report, append(slices.Clone(senders), receivers...), oldMembers)
		return err
	}

	// Serve-through handover: announce the in-flight table before any data
	// moves. From here until settle, clients read keys that change owner
	// incoming-first with fallback and dual-apply their writes; any phase
	// failure rolls the table back in one announced version bump.
	moved, err := m.beginHandover(newMembers)
	if err != nil {
		return err
	}
	report.Segments = moved
	m.callHook("prepare")

	// Phase 1: metadata transfer, concurrent across senders.
	ops := make([]phaseOp, len(senders))
	for i, node := range senders {
		node := node
		ops[i] = phaseOp{node: node, run: func(opCtx context.Context) error {
			ag, err := m.dir.Agent(node)
			if err != nil {
				return err
			}
			return ag.SendMetadata(opCtx, round, newMembers)
		}}
	}
	if err := m.runPhase(ctx, "metadata", report, ops); err != nil {
		return abort(err)
	}
	m.callHook("metadata")

	// Phase 2: FuseCache, concurrent across receivers. Each reports how
	// many head items every sender should ship to it.
	takesByTarget := make([]agent.Takes, len(receivers))
	ops = make([]phaseOp, len(receivers))
	for i, target := range receivers {
		i, target := i, target
		ops[i] = phaseOp{node: target, run: func(opCtx context.Context) error {
			ag, err := m.dir.Agent(target)
			if err != nil {
				return err
			}
			takes, err := ag.ComputeTakes(opCtx, round)
			if errors.Is(err, agent.ErrNoMetadata) {
				return nil // nothing hashed to this target
			}
			if err != nil {
				return err
			}
			takesByTarget[i] = takes
			return nil
		}}
	}
	if err := m.runPhase(ctx, "fusecache", report, ops); err != nil {
		return abort(err)
	}
	m.callHook("fusecache")

	// Phase 3: data migration, concurrent per (sender → target) pair in
	// sorted pair order.
	type pairSpec struct {
		node, target string
		takes        map[int]int
	}
	var specs []pairSpec
	for _, node := range senders {
		for i, target := range receivers {
			if takes := takesByTarget[i][node]; takes != nil {
				specs = append(specs, pairSpec{node: node, target: target, takes: takes})
			}
		}
	}
	pairs := make([]phaseOp, len(specs))
	sent := make([]agent.SendStats, len(specs))
	for i, sp := range specs {
		i, sp := i, sp
		pairs[i] = phaseOp{node: sp.node, target: sp.target, run: func(opCtx context.Context) error {
			ag, err := m.dir.Agent(sp.node)
			if err != nil {
				return err
			}
			stats, err := ag.SendData(opCtx, round, sp.target, sp.takes)
			sent[i] = stats
			return err
		}}
	}
	err = m.runPhase(ctx, "data", report, pairs)
	for i, sp := range specs {
		st := sent[i]
		report.ItemsMigrated += st.Pairs
		report.ItemsUnapplied += st.Unapplied
		report.Data = append(report.Data, NodeDataStat{
			Node: sp.node, Target: sp.target,
			Pairs: st.Pairs, Resumed: st.Resumed, Unapplied: st.Unapplied,
			BytesMoved: st.BytesMoved, WireBytes: st.WireBytes,
			Duration: st.Duration,
		})
	}
	if err != nil {
		return abort(err)
	}
	m.callHook("data")

	// Settle the table: one announcement hands every moving key over.
	t0 := m.now()
	if err := m.settleHandover(); err != nil {
		report.Aborted = "handover"
		return abort(err)
	}
	report.HandoverWaves = 1
	report.OwnershipVersion = m.OwnershipTable().Version()
	report.Timings = append(report.Timings, PhaseTiming{Phase: "handover", Duration: m.now().Sub(t0)})
	m.callHook("handover")

	// Adopt the new membership and shut the departing senders down.
	t0 = m.now()
	m.adoptMembers(newMembers)
	report.Members = append([]string(nil), newMembers...)
	if m.stop != nil {
		for _, node := range senders {
			if slices.Contains(newMembers, node) {
				continue
			}
			if err := m.stop(node); err != nil {
				return fmt.Errorf("stop %s: %w", node, err)
			}
		}
	}
	report.Timings = append(report.Timings, PhaseTiming{Phase: "membership", Duration: m.now().Sub(t0)})
	if len(survivors) == 0 {
		return nil
	}

	// Release: with the table settled, every surviving sender drops the
	// keys it no longer owns — what it shipped, what FuseCache left behind
	// and the writes dual-applied while the keys moved.
	released := make([]int, len(survivors))
	ops = make([]phaseOp, len(survivors))
	for i, node := range survivors {
		i, node := i, node
		ops[i] = phaseOp{node: node, run: func(opCtx context.Context) error {
			ag, err := m.dir.Agent(node)
			if err != nil {
				return err
			}
			// A retry finds what an attempt with a lost reply dropped
			// already gone, so attempts add up.
			n, err := ag.Release(opCtx, newMembers)
			released[i] += n
			return err
		}}
	}
	err = m.runPhase(ctx, "release", report, ops)
	for _, n := range released {
		report.ItemsReleased += n
	}
	return err
}

// endRound ends an aborted action's round on nodes once the table has
// rolled back to oldMembers: each releases, best effort, under the old
// ring, so a receiver drops the copies it imported of keys it does not own
// and every agent clears the round's offers, takes and picks. It runs as
// the report's "rollback" phase; a failed release is left in the report's
// per-node timings, not returned: the action has already failed, and a
// later round replaces what is left. A cancelled ctx skips it — the caller
// wants out, and no call could get through.
func (m *Master) endRound(ctx context.Context, report *ScaleReport, nodes, oldMembers []string) {
	if ctx.Err() != nil {
		return
	}
	ops := make([]phaseOp, len(nodes))
	for i, node := range nodes {
		node := node
		ops[i] = phaseOp{node: node, run: func(opCtx context.Context) error {
			ag, err := m.dir.Agent(node)
			if err != nil {
				return err
			}
			_, err = ag.Release(opCtx, oldMembers)
			return err
		}}
	}
	_ = m.fanOut(ctx, "rollback", report, ops, false) // never fails
}

// nextRound draws a new action's round ID: the clock's Unix nanoseconds,
// raised above the last round, so rounds keep increasing across Master
// processes, whose table versions each start over. Callers hold m.act.
func (m *Master) nextRound() uint64 {
	m.round = max(m.round+1, uint64(max(m.now().UnixNano(), 0)))
	return m.round
}

// adoptMembers records the membership a settled action produced. The
// listeners already learned it from the settled table.
func (m *Master) adoptMembers(members []string) {
	m.mu.Lock()
	m.members = append(m.members[:0:0], members...)
	m.mu.Unlock()
}
