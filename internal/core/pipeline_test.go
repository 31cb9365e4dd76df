package core

// Failure-injection and cancellation tests for the concurrent migration
// pipeline: a mid-phase-3 failure must cancel in-flight transfers and leave
// the membership untouched, external cancellation must abort cleanly, and
// transient failures must be absorbed by the retry policy and show up in
// the report's retry count. Run with -race: the phase fan-out is the most
// concurrent code path in the control plane.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

// hookDirectory wraps another Directory and lets tests intercept individual
// MasterAgent operations per node.
type hookDirectory struct {
	inner Directory
	// hooks maps node → hookAgent overrides; nil entries pass through.
	hooks map[string]*hooks
}

type hooks struct {
	sendMetadata func(ctx context.Context, inner func(context.Context) error) error
	sendData     func(ctx context.Context, target string, inner func(context.Context) (agent.SendStats, error)) (agent.SendStats, error)
	// release, when set, runs before the agent's Release; an error
	// refuses the release.
	release func(ctx context.Context) error
}

func (d *hookDirectory) Agent(node string) (MasterAgent, error) {
	inner, err := d.inner.Agent(node)
	if err != nil {
		return nil, err
	}
	return &hookAgent{inner: inner, h: d.hooks[node]}, nil
}

type hookAgent struct {
	inner MasterAgent
	h     *hooks
}

func (a *hookAgent) Node() string { return a.inner.Node() }

func (a *hookAgent) Score(ctx context.Context) agent.ScoreReport { return a.inner.Score(ctx) }

func (a *hookAgent) SendMetadata(ctx context.Context, round uint64, retained []string) error {
	call := func(ctx context.Context) error { return a.inner.SendMetadata(ctx, round, retained) }
	if a.h != nil && a.h.sendMetadata != nil {
		return a.h.sendMetadata(ctx, call)
	}
	return call(ctx)
}

func (a *hookAgent) ComputeTakes(ctx context.Context, round uint64) (agent.Takes, error) {
	return a.inner.ComputeTakes(ctx, round)
}

func (a *hookAgent) SendData(ctx context.Context, round uint64, target string, takes map[int]int) (agent.SendStats, error) {
	call := func(ctx context.Context) (agent.SendStats, error) {
		return a.inner.SendData(ctx, round, target, takes)
	}
	if a.h != nil && a.h.sendData != nil {
		return a.h.sendData(ctx, target, call)
	}
	return call(ctx)
}

func (a *hookAgent) Release(ctx context.Context, members []string) (int, error) {
	if a.h != nil && a.h.release != nil {
		if err := a.h.release(ctx); err != nil {
			return 0, err
		}
	}
	return a.inner.Release(ctx, members)
}

// checkCacheConsistent verifies a cache's structural invariants: per class,
// the MRU dump is in non-increasing timestamp order, the class lengths sum
// to Len, and the cache still serves reads and writes.
func checkCacheConsistent(t *testing.T, name string, a *agent.Agent) {
	t.Helper()
	cc := a.Cache()
	total := 0
	for classID, metas := range cc.DumpAll(nil) {
		total += len(metas)
		if got := cc.ClassLen(classID); got != len(metas) {
			t.Errorf("%s class %d: dump has %d items, ClassLen = %d", name, classID, len(metas), got)
		}
		for i := 1; i < len(metas); i++ {
			if metas[i].LastAccess.After(metas[i-1].LastAccess) {
				t.Errorf("%s class %d: MRU order broken at %d", name, classID, i)
				break
			}
		}
	}
	if got := cc.Len(); got != total {
		t.Errorf("%s: Len = %d, dumped %d", name, got, total)
	}
	probe := "consistency-probe-" + name
	if err := cc.Set(probe, []byte("v")); err != nil {
		t.Errorf("%s: cache rejects writes after aborted migration: %v", name, err)
	}
	if _, err := cc.Get(probe); err != nil {
		t.Errorf("%s: cache rejects reads after aborted migration: %v", name, err)
	}
}

func TestMidPhase3FailureCancelsInflightAndKeepsMembership(t *testing.T) {
	members := names(4)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 800)

	boom := errors.New("phase-3 injected failure")
	var cancellations atomic.Int32
	var once sync.Once
	inflight := make(chan struct{})
	// node-01's transfers block until the group's fail-fast cancellation
	// reaches them; node-00 fails terminally, but only once a node-01
	// transfer is genuinely in flight — otherwise fail-fast could cancel
	// the phase before the sibling ever started.
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-00": {sendData: func(ctx context.Context, _ string, _ func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
				select {
				case <-inflight:
				case <-time.After(5 * time.Second):
				}
				return agent.SendStats{}, taskgroup.Permanent(boom)
			}},
			"node-01": {sendData: func(ctx context.Context, _ string, _ func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
				once.Do(func() { close(inflight) })
				select {
				case <-ctx.Done():
					cancellations.Add(1)
					return agent.SendStats{}, ctx.Err()
				case <-time.After(5 * time.Second):
					return agent.SendStats{}, errors.New("in-flight transfer never saw cancellation")
				}
			}},
		},
	}
	m, err := NewMaster(dir, members, WithClock(c.clk.Now))
	if err != nil {
		t.Fatal(err)
	}

	report, err := m.ScaleInNodes(context.Background(), []string{"node-00", "node-01"})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected phase-3 failure", err)
	}
	if report == nil {
		t.Fatal("mid-phase failure returned nil report")
	}
	if report.Aborted != "data" {
		t.Fatalf("Aborted = %q, want \"data\"", report.Aborted)
	}
	if cancellations.Load() == 0 {
		t.Fatal("no in-flight transfer observed context cancellation")
	}
	if got := m.Members(); len(got) != 4 {
		t.Fatalf("membership = %v after aborted migration, want all 4 nodes", got)
	}
	// The completed phases are in the partial report, then the failed phase
	// with its per-pair outcomes, then the rollback that ended the round.
	phases := make([]string, len(report.Timings))
	for i, ph := range report.Timings {
		phases[i] = ph.Phase
	}
	if want := []string{"metadata", "fusecache", "data", "rollback"}; strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Fatalf("partial report phases = %v, want %v", phases, want)
	}
	sawFailedPair := false
	for _, nt := range report.NodeTimings {
		if nt.Phase == "data" && nt.Node == "node-00" && nt.Err != "" {
			sawFailedPair = true
		}
	}
	if !sawFailedPair {
		t.Fatal("failed pair missing from NodeTimings")
	}
	// Retained caches must stay structurally consistent after the abort.
	for _, name := range []string{"node-02", "node-03"} {
		checkCacheConsistent(t, name, c.agent(t, name))
	}
}

func TestExternalCancellationAbortsBeforeFlip(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside phase 1, as an external caller would mid-flight.
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-00": {sendMetadata: func(ctx context.Context, inner func(context.Context) error) error {
				cancel()
				<-ctx.Done()
				return ctx.Err()
			}},
		},
	}
	m, err := NewMaster(dir, members, WithClock(c.clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleInNodes(ctx, []string{"node-00"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil || report.Aborted != "metadata" {
		t.Fatalf("report = %+v, want partial report aborted in metadata", report)
	}
	if got := m.Members(); len(got) != 3 {
		t.Fatalf("membership = %v after cancelled migration", got)
	}
}

func TestAlreadyCancelledContextMakesNoProgress(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 300)
	m := newTestMaster(t, c, members)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := m.ScaleInNodes(ctx, []string{"node-00"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report.ItemsMigrated != 0 {
		t.Fatalf("migrated %d items under a dead context", report.ItemsMigrated)
	}
	if got := m.Members(); len(got) != 3 {
		t.Fatalf("membership = %v", got)
	}
}

func TestRetryAbsorbsTransientFailures(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)

	var failures atomic.Int32
	failures.Store(2) // fewer than the 3 attempts the default policy allows
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-00": {sendMetadata: func(ctx context.Context, inner func(context.Context) error) error {
				if failures.Add(-1) >= 0 {
					return errors.New("transient network blip")
				}
				return inner(ctx)
			}},
		},
	}
	m, err := NewMaster(dir, members,
		WithClock(c.clk.Now),
		WithRetry(taskgroup.Backoff{Attempts: 3, Delay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleInNodes(context.Background(), []string{"node-00"})
	if err != nil {
		t.Fatalf("scale-in failed despite retry budget: %v", err)
	}
	if report.Retries != 2 {
		t.Fatalf("report.Retries = %d, want 2", report.Retries)
	}
	if report.Aborted != "" {
		t.Fatalf("Aborted = %q on success", report.Aborted)
	}
	if got := m.Members(); len(got) != 2 {
		t.Fatalf("membership = %v", got)
	}
}

func TestScaleOutPartialReportOnSplitFailure(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 400)

	boom := errors.New("split failure")
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-01": {sendData: func(context.Context, string, func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
				return agent.SendStats{}, taskgroup.Permanent(boom)
			}},
		},
	}
	m, err := NewMaster(dir, members, WithClock(c.clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	c.addNode(t, "node-09", 2)
	report, err := m.ScaleOut(context.Background(), []string{"node-09"})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected split failure", err)
	}
	if report == nil || report.Aborted != "data" {
		t.Fatalf("report = %+v, want partial report aborted in data", report)
	}
	if got := m.Members(); len(got) != 2 {
		t.Fatalf("membership grew to %v despite aborted scale-out", got)
	}
}

func TestNodeTimingsDeterministicOrder(t *testing.T) {
	build := func() *ScaleReport {
		members := names(4)
		c := newCluster(t, members, 2)
		c.populateByRing(t, members, 800)
		m := newTestMaster(t, c, members)
		// Unsorted input: the pipeline must canonicalize ordering itself.
		report, err := m.ScaleInNodes(context.Background(), []string{"node-01", "node-00"})
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	key := func(r *ScaleReport) string {
		parts := make([]string, len(r.NodeTimings))
		for i, nt := range r.NodeTimings {
			parts[i] = fmt.Sprintf("%s/%s/%s", nt.Phase, nt.Node, nt.Target)
		}
		return strings.Join(parts, ";")
	}
	first := key(build())
	for i := 0; i < 4; i++ {
		if got := key(build()); got != first {
			t.Fatalf("run %d NodeTimings order differs:\n%s\nvs\n%s", i+1, got, first)
		}
	}
	if !strings.Contains(first, "metadata/node-00/") || !strings.Contains(first, "metadata/node-01/") {
		t.Fatalf("NodeTimings missing per-node metadata entries: %s", first)
	}
}

func TestConcurrentPhasesRespectWorkerLimit(t *testing.T) {
	members := names(6)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 900)

	var cur, peak atomic.Int32
	var mu sync.Mutex
	hookAll := make(map[string]*hooks, len(members))
	for _, n := range members {
		hookAll[n] = &hooks{sendMetadata: func(ctx context.Context, inner func(context.Context) error) error {
			v := cur.Add(1)
			mu.Lock()
			if v > peak.Load() {
				peak.Store(v)
			}
			mu.Unlock()
			defer cur.Add(-1)
			time.Sleep(2 * time.Millisecond)
			return inner(ctx)
		}}
	}
	dir := &hookDirectory{inner: RegistryDirectory{Registry: c.reg}, hooks: hookAll}
	m, err := NewMaster(dir, members, WithClock(c.clk.Now), WithWorkerLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	retiring := []string{"node-00", "node-01", "node-02", "node-03"}
	sort.Strings(retiring)
	if _, err := m.ScaleInNodes(context.Background(), retiring); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent metadata sends, worker limit 2", p)
	}
}

// TestAbortedScaleOutStrandsNothing: a scale-out whose second data push
// fails after the first landed on the newcomer rolls back with every key
// still on a member. No member drops a key before the table settles, so
// nothing lives only on the discarded newcomer, which releases what
// landed once the round ends.
func TestAbortedScaleOutStrandsNothing(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 400)

	boom := errors.New("push failure")
	var newcomer *agent.Agent
	landed := 0
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-01": {sendData: func(context.Context, string, func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
				landed = newcomer.Cache().Len()
				return agent.SendStats{}, taskgroup.Permanent(boom)
			}},
		},
	}
	// One worker: node-00's push completes before node-01's starts.
	m, err := NewMaster(dir, members, WithClock(c.clk.Now), WithWorkerLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	newcomer = c.addNode(t, "node-09", 2)
	report, err := m.ScaleOut(context.Background(), []string{"node-09"})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected push failure", err)
	}
	if report.Aborted != "data" || landed == 0 {
		t.Fatalf("premise: aborted in %q with %d keys landed on the newcomer, want data with some landed",
			report.Aborted, landed)
	}
	if n := newcomer.Cache().Len(); n != 0 {
		t.Fatalf("the rolled-back newcomer still holds %d of the %d keys that landed", n, landed)
	}
	stranded := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if !c.agent(t, "node-00").Cache().Contains(key) && !c.agent(t, "node-01").Cache().Contains(key) {
			stranded++
		}
	}
	if stranded != 0 {
		t.Fatalf("%d of 400 keys live only on the rolled-back newcomer", stranded)
	}
}

// TestScaleOutToSmallNewcomer is the paper's "rare case" (Section III-D4):
// the remapped share outgrows a 1-page newcomer, so FuseCache picks the
// globally hottest items it can hold across both senders, the report
// counts exactly what lands, and the senders release the rest.
func TestScaleOutToSmallNewcomer(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 8)
	ring, err := hashring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 900)
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.agent(t, owner).Cache().Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	full := []string{"node-00", "node-01", "node-09"}
	fullRing, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	movesOut := func(key string) bool {
		owner, err := fullRing.Get(key)
		return err == nil && owner == "node-09"
	}
	var remapped []cache.ItemMeta
	for _, n := range members {
		for _, metas := range c.agent(t, n).Cache().DumpAll(movesOut) {
			remapped = append(remapped, metas...)
		}
	}

	m := newTestMaster(t, c, members)
	newcomer := c.addNode(t, "node-09", 1)
	report, err := m.ScaleOut(context.Background(), []string{"node-09"})
	if err != nil {
		t.Fatal(err)
	}
	resident := newcomer.Cache().Len()
	if resident == 0 || resident >= len(remapped) {
		t.Fatalf("premise: newcomer holds %d of %d remapped keys, want a binding cut", resident, len(remapped))
	}
	if got := report.ItemsMigrated - report.ItemsUnapplied; got != resident {
		t.Fatalf("migrated %d − unapplied %d = %d, newcomer holds %d",
			report.ItemsMigrated, report.ItemsUnapplied, got, resident)
	}
	sort.Slice(remapped, func(i, j int) bool { return remapped[i].LastAccess.After(remapped[j].LastAccess) })
	for i, mt := range remapped {
		if on := newcomer.Cache().Contains(mt.Key); on != (i < resident) {
			t.Fatalf("remapped key %s at hotness rank %d: on newcomer = %v, want the hottest %d",
				mt.Key, i, on, resident)
		}
	}
	if report.ItemsReleased != len(remapped) {
		t.Fatalf("released %d, want all %d remapped keys", report.ItemsReleased, len(remapped))
	}
	for _, n := range members {
		if left := c.agent(t, n).Cache().DumpAll(movesOut); len(left) != 0 {
			t.Fatalf("%s still holds keys the settled table gave node-09", n)
		}
	}
}
