package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

// Regression tests for the round ID: what one scaling action leaves on the
// agents must not reach the next, even when a fresh Master drives it.

// populateFull fills every member's two pages with 700-byte values, keys
// placed by the ring, so FuseCache has to choose on every receiver.
func (c *cluster) populateFull(t *testing.T, members []string) {
	t.Helper()
	ring, err := hashring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 700)
	for i := 0; i < 4000*len(members); i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.agent(t, owner).Cache().Set(key, value); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAbortedRoundLeavesNoOffers: a scale-in aborted in phase 2 leaves its
// offers on the receivers. A fresh Master then retires another node; its
// FuseCache must weigh only that action's offers, so it migrates exactly
// what the same action migrates on a twin tier that never saw the abort.
func TestAbortedRoundLeavesNoOffers(t *testing.T) {
	members := names(4)
	twin := func() *cluster {
		c := newCluster(t, members, 2)
		c.populateFull(t, members)
		return c
	}
	retire := func(c *cluster) *ScaleReport {
		t.Helper()
		report, err := newTestMaster(t, c, members).ScaleInNodes(context.Background(), []string{"node-03"})
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	clean := retire(twin())

	c := twin()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := newTestMaster(t, c, members, WithPhaseHook(func(phase string) {
		if phase == "metadata" {
			cancel()
		}
	}))
	report, err := aborted.ScaleInNodes(ctx, []string{"node-00"})
	if !errors.Is(err, context.Canceled) || report.Aborted != "fusecache" {
		t.Fatalf("premise: err = %v, aborted in %q; want a phase-2 cancellation", err, report.Aborted)
	}
	if c.agent(t, "node-01").PendingOffers() == 0 {
		t.Fatal("premise: the aborted action left no offers behind")
	}

	got := retire(c)
	t.Logf("migrated %d items after the aborted round, %d on the clean twin", got.ItemsMigrated, clean.ItemsMigrated)
	if got.ItemsMigrated == 0 || got.ItemsMigrated != clean.ItemsMigrated {
		t.Fatalf("after an aborted round the action migrated %d items, the clean twin %d",
			got.ItemsMigrated, clean.ItemsMigrated)
	}
}

// TestReceiverWithoutOffersGetsNothing: a receiver no sender offered
// anything in this round reports ErrNoMetadata, and no report.Data row
// names it, even though it computed takes in the previous action.
func TestReceiverWithoutOffersGetsNothing(t *testing.T) {
	c := newCluster(t, names(3), 1)
	c.populateByRing(t, names(2), 400)
	m := newTestMaster(t, c, names(2))
	ctx := context.Background()
	// node-02 joins: it weighs offers from node-00 and node-01.
	if _, err := m.ScaleOut(ctx, []string{"node-02"}); err != nil {
		t.Fatal(err)
	}
	// Leave node-01 only keys that stay with node-00 once it retires.
	ring, err := hashring.New([]string{"node-00", "node-02"})
	if err != nil {
		t.Fatal(err)
	}
	sender := c.agent(t, "node-01").Cache()
	kept := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if !sender.Contains(key) {
			continue
		}
		if owner, _ := ring.Get(key); owner == "node-02" {
			if err := sender.Delete(key); err != nil {
				t.Fatal(err)
			}
		} else {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("premise: node-01 keeps no key for node-00")
	}

	report, err := m.ScaleInNodes(ctx, []string{"node-01"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range report.Data {
		if d.Target == "node-02" {
			t.Fatalf("report.Data names node-02, which was offered nothing: %+v", d)
		}
	}
	if report.ItemsMigrated != kept {
		t.Fatalf("migrated %d items, want node-01's %d", report.ItemsMigrated, kept)
	}
	if _, err := c.agent(t, "node-02").ComputeTakes(ctx, m.round); !errors.Is(err, agent.ErrNoMetadata) {
		t.Fatalf("node-02's takes this round: err = %v, want ErrNoMetadata", err)
	}
}

// TestAbortedRoundIsReleased: a scale-in whose data phase fails after one
// push landed ends its round on every node. Once the table rolls back, no
// receiver holds a key it does not own under the old ring, no receiver
// keeps offers, and the sender's picks are gone: SendData of the aborted
// round finds none.
func TestAbortedRoundIsReleased(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)

	boom := errors.New("push failure")
	landed := 0
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-00": {sendData: func(ctx context.Context, target string, inner func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
				// The first push lands; the second fails.
				if landed > 0 {
					return agent.SendStats{}, taskgroup.Permanent(boom)
				}
				st, err := inner(ctx)
				landed += st.Pairs
				return st, err
			}},
		},
	}
	// One worker: the pushes run one after the other.
	m, err := NewMaster(dir, members, WithClock(c.clk.Now), WithWorkerLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleInNodes(context.Background(), []string{"node-00"})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected push failure", err)
	}
	if report.Aborted != "data" || landed == 0 {
		t.Fatalf("premise: aborted in %q with %d pairs landed, want data with some landed", report.Aborted, landed)
	}
	released := 0
	for _, nt := range report.NodeTimings {
		if nt.Phase == "rollback" {
			released++
			if nt.Err != "" {
				t.Errorf("rollback release on %s: %s", nt.Node, nt.Err)
			}
		}
	}
	if released != len(members) {
		t.Errorf("the report's rollback phase released %d nodes, want all %d", released, len(members))
	}

	ring, err := hashring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"node-01", "node-02"} {
		a := c.agent(t, node)
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("key-%06d", i)
			if owner, _ := ring.Get(key); owner != node && a.Cache().Contains(key) {
				t.Errorf("%s holds %s, which %s owns under the rolled-back table", node, key, owner)
			}
		}
		if n := a.PendingOffers(); n != 0 {
			t.Errorf("%s keeps %d offers of the aborted round", node, n)
		}
	}
	sender := c.agent(t, "node-00")
	if _, err := sender.SendData(context.Background(), m.round, "node-01", map[int]int{0: 1}); !errors.Is(err, agent.ErrNoPicks) {
		t.Errorf("SendData of the aborted round: err = %v, want ErrNoPicks", err)
	}
	if got := sender.Cache().Len(); got == 0 {
		t.Error("the sender lost its keys in the rollback")
	}
}

// TestRollbackReleaseIsBestEffort: when the aborted round's release fails
// on the sender, the receivers are still released (one worker, so a
// fail-fast fan-out would cancel them), the action returns the data
// phase's error, and the failed release is in the report's rollback phase.
func TestRollbackReleaseIsBestEffort(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	c.populateByRing(t, members, 600)

	boom := errors.New("push failure")
	refused := errors.New("release refused")
	landed := 0
	dir := &hookDirectory{
		inner: RegistryDirectory{Registry: c.reg},
		hooks: map[string]*hooks{
			"node-00": {
				sendData: func(ctx context.Context, target string, inner func(context.Context) (agent.SendStats, error)) (agent.SendStats, error) {
					if landed > 0 {
						return agent.SendStats{}, taskgroup.Permanent(boom)
					}
					st, err := inner(ctx)
					landed += st.Pairs
					return st, err
				},
				release: func(context.Context) error { return taskgroup.Permanent(refused) },
			},
		},
	}
	m, err := NewMaster(dir, members, WithClock(c.clk.Now), WithWorkerLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleInNodes(context.Background(), []string{"node-00"})
	if !errors.Is(err, boom) || report.Aborted != "data" || landed == 0 {
		t.Fatalf("err = %v, aborted in %q with %d pairs landed; want the push failure in data with some landed",
			err, report.Aborted, landed)
	}
	for _, nt := range report.NodeTimings {
		if nt.Phase != "rollback" {
			continue
		}
		if failed := nt.Err != ""; failed != (nt.Node == "node-00") {
			t.Errorf("rollback release on %s: err %q", nt.Node, nt.Err)
		}
	}
	ring, err := hashring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"node-01", "node-02"} {
		a := c.agent(t, node)
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("key-%06d", i)
			if owner, _ := ring.Get(key); owner != node && a.Cache().Contains(key) {
				t.Fatalf("%s holds %s, which %s owns: its release did not run", node, key, owner)
			}
		}
	}
}
