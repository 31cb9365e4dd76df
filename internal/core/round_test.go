package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/hashring"
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
