package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/agent"
	"repro/internal/taskgroup"
)

// faultyDirectory wraps another Directory and makes chosen nodes
// unreachable or their operations fail.
type faultyDirectory struct {
	inner       Directory
	unreachable map[string]bool
	failPhase   map[string]string // node → phase to fail ("metadata"|"takes"|"data"|"release")
}

var errInjected = errors.New("injected failure")

func (d *faultyDirectory) Agent(node string) (MasterAgent, error) {
	if d.unreachable[node] {
		return nil, fmt.Errorf("agent %s: %w", node, errInjected)
	}
	inner, err := d.inner.Agent(node)
	if err != nil {
		return nil, err
	}
	return &faultyAgent{inner: inner, failPhase: d.failPhase[node]}, nil
}

type faultyAgent struct {
	inner     MasterAgent
	failPhase string
}

func (a *faultyAgent) Node() string { return a.inner.Node() }

func (a *faultyAgent) Score(ctx context.Context) agent.ScoreReport { return a.inner.Score(ctx) }

func (a *faultyAgent) SendMetadata(ctx context.Context, retained []string) error {
	if a.failPhase == "metadata" {
		return taskgroup.Permanent(errInjected)
	}
	return a.inner.SendMetadata(ctx, retained)
}

func (a *faultyAgent) ComputeTakes(ctx context.Context) (agent.Takes, error) {
	if a.failPhase == "takes" {
		return nil, taskgroup.Permanent(errInjected)
	}
	return a.inner.ComputeTakes(ctx)
}

func (a *faultyAgent) SendData(ctx context.Context, target string, takes map[int]int, retained []string) (agent.SendStats, error) {
	if a.failPhase == "data" {
		return agent.SendStats{}, taskgroup.Permanent(errInjected)
	}
	return a.inner.SendData(ctx, target, takes, retained)
}

func (a *faultyAgent) Release(ctx context.Context, members []string) (int, error) {
	if a.failPhase == "release" {
		return 0, taskgroup.Permanent(errInjected)
	}
	return a.inner.Release(ctx, members)
}

func newFaultyMaster(t *testing.T, c *cluster, members []string, d *faultyDirectory) *Master {
	t.Helper()
	d.inner = RegistryDirectory{Registry: c.reg}
	m, err := NewMaster(d, members, WithClock(c.clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScaleInAbortsOnUnreachableAgent(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)
	d := &faultyDirectory{unreachable: map[string]bool{"node-01": true}}
	m := newFaultyMaster(t, c, members, d)

	if _, err := m.ScaleIn(context.Background(), 1); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// Membership untouched on abort: the flip happens only after all
	// phases succeed.
	if got := len(m.Members()); got != 3 {
		t.Fatalf("membership shrank to %d despite aborted scale-in", got)
	}
}

func TestScaleInAbortsPerPhase(t *testing.T) {
	for _, phase := range []string{"metadata", "takes", "data"} {
		t.Run(phase, func(t *testing.T) {
			members := names(3)
			c := newCluster(t, members, 2)
			c.populateByRing(t, members, 600)
			// Every node fails the phase; whichever is touched first
			// aborts the flow.
			failAll := make(map[string]string, len(members))
			for _, n := range members {
				failAll[n] = phase
			}
			d := &faultyDirectory{failPhase: failAll}
			m := newFaultyMaster(t, c, members, d)

			if _, err := m.ScaleIn(context.Background(), 1); !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
			if got := len(m.Members()); got != 3 {
				t.Fatalf("membership = %d after aborted %s phase", got, phase)
			}
		})
	}
}

func TestScaleOutAbortsOnSplitFailure(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 400)
	failAll := map[string]string{"node-00": "data", "node-01": "data"}
	d := &faultyDirectory{failPhase: failAll}
	m := newFaultyMaster(t, c, members, d)

	c.addNode(t, "node-09", 2)
	if _, err := m.ScaleOut(context.Background(), []string{"node-09"}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if got := len(m.Members()); got != 2 {
		t.Fatalf("membership = %d after aborted scale-out", got)
	}
	if got := c.agent(t, "node-00").Cache().Len() + c.agent(t, "node-01").Cache().Len(); got != 400 {
		t.Fatalf("members hold %d of 400 keys after the rollback", got)
	}
}

// TestScaleOutReleaseFailureStaysSettled pins the post-settle contract: a
// release that keeps failing cannot roll back a settled table, so the
// action stays adopted, the report names "release" and the error is
// returned.
func TestScaleOutReleaseFailureStaysSettled(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 400)
	d := &faultyDirectory{failPhase: map[string]string{"node-01": "release"}}
	m := newFaultyMaster(t, c, members, d)

	c.addNode(t, "node-09", 2)
	report, err := m.ScaleOut(context.Background(), []string{"node-09"})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if report == nil || report.Aborted != "release" {
		t.Fatalf("report = %+v, want Aborted release", report)
	}
	want := []string{"node-00", "node-01", "node-09"}
	if !slices.Equal(m.Members(), want) || !slices.Equal(report.Members, want) {
		t.Fatalf("members = %v (report %v), want the adopted %v", m.Members(), report.Members, want)
	}
	if !m.OwnershipTable().Settled() {
		t.Fatal("table not settled after a post-settle failure")
	}
	if report.ItemsMigrated == 0 || c.agent(t, "node-09").Cache().Len() == 0 {
		t.Fatalf("migrated %d, newcomer holds %d", report.ItemsMigrated, c.agent(t, "node-09").Cache().Len())
	}
}

func TestScaleInRecoversAfterTransientFailure(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)
	d := &faultyDirectory{failPhase: map[string]string{"node-00": "metadata"}}
	m := newFaultyMaster(t, c, members, d)

	// First attempt may fail if node-00 is the coldest choice; clear the
	// fault and the same Master must complete.
	_, firstErr := m.ScaleIn(context.Background(), 1)
	d.failPhase = nil
	report, err := m.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatalf("post-recovery scale-in failed: %v (first attempt: %v)", err, firstErr)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("recovered scale-in migrated nothing")
	}
	if got := len(m.Members()); got != 2 {
		t.Fatalf("membership = %d", got)
	}
}

func TestScoreNodesSurfacesDirectoryError(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 1)
	d := &faultyDirectory{unreachable: map[string]bool{"node-00": true}}
	m := newFaultyMaster(t, c, members, d)
	if _, err := m.ScoreNodes(context.Background()); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}
