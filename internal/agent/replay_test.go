package agent

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fusecache"
	"repro/internal/taskgroup"
)

// Tests of how an agent tells scaling actions apart by their round ID.
// The first is the regression test for the ComputeTakes reply-loss bug the
// chaos harness surfaced (internal/cluster/invariants, invariant I1): when
// the first reply was lost on the wire, the Master's retry used to find no
// offers, get ErrNoMetadata, and silently drop the target from phase 3 —
// the FuseCache-selected hot items never migrated. A retry within the
// round now returns the takes the first attempt stored.

// TestComputeTakesRetryAfterReplyLoss: a second call in the same round —
// exactly what a Master retry after a lost reply looks like — must return
// the same takes, not ErrNoMetadata.
func TestComputeTakesRetryAfterReplyLoss(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)
	if err := retiring.SendMetadata(context.Background(), 1, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	first, err := r1.ComputeTakes(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no takes computed for a populated retiring node")
	}
	retry, err := r1.ComputeTakes(context.Background(), 1)
	if err != nil {
		t.Fatalf("retry after reply loss: %v", err)
	}
	if !reflect.DeepEqual(first, retry) {
		t.Fatalf("retry takes %v, want the stored %v", retry, first)
	}
}

// TestNewRoundDropsLastTakes: the takes of one round are not the next
// round's. A receiver no sender offered anything in the new round reports
// ErrNoMetadata instead of serving the last action's takes, and new offers
// are weighed afresh.
func TestNewRoundDropsLastTakes(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)
	ctx := context.Background()
	if err := retiring.SendMetadata(ctx, 1, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.ComputeTakes(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.ComputeTakes(ctx, 2); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("round with no offers: err = %v, want ErrNoMetadata", err)
	}
	if err := retiring.SendMetadata(ctx, 3, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	fresh, err := r1.ComputeTakes(ctx, 3)
	if err != nil {
		t.Fatalf("fresh round: %v", err)
	}
	if len(fresh) == 0 {
		t.Fatal("fresh round computed no takes")
	}
}

// TestComputeTakesNoMemoWithoutSuccess: a node that never received offers
// reports ErrNoMetadata, retry or not.
func TestComputeTakesNoMemoWithoutSuccess(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	if _, err := a.ComputeTakes(context.Background(), 1); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("err = %v, want ErrNoMetadata", err)
	}
	if _, err := a.ComputeTakes(context.Background(), 1); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("second call err = %v, want ErrNoMetadata", err)
	}
}

// TestOlderRoundRefused: every op of a round older than the agent's
// current one — a late SendMetadata from an abandoned attempt, a late
// offer, a late phase 2 or 3 — is refused with a permanent ErrStaleRound
// and leaves the newer round's offers, takes and picks intact.
func TestOlderRoundRefused(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	late := newNode(t, reg, "late", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)
	populate(t, late, 50)
	ctx := context.Background()
	const old, cur = 6, 7
	// The late sender's stale offer lands first; the current round's own
	// offer then starts the round on r1.
	if err := late.SendMetadata(ctx, old, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	if err := retiring.SendMetadata(ctx, cur, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	stale := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrStaleRound) || !taskgroup.IsPermanent(err) {
			t.Fatalf("%s of an older round: err = %v, want permanent ErrStaleRound", what, err)
		}
	}
	refuseAll := func() {
		t.Helper()
		_, err := retiring.Pick(ctx, old, []string{"r1"})
		stale("Pick", err)
		stale("SendMetadata", retiring.SendMetadata(ctx, old, []string{"r1"}))
		stale("OfferMetadata", r1.OfferMetadata(ctx, "late", old, map[int]fusecache.List{0: {1}}))
		_, err = r1.ComputeTakes(ctx, old)
		stale("ComputeTakes", err)
		_, err = retiring.SendData(ctx, old, "r1", map[int]int{0: 1})
		stale("SendData", err)
		_, err = r1.ImportOpen("retiring", old, 0)
		stale("ImportOpen", err)
	}

	refuseAll()
	if n := r1.PendingOffers(); n != 1 {
		t.Fatalf("r1 holds %d offers after the stale ops, want the current round's 1", n)
	}
	takes, err := r1.ComputeTakes(ctx, cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := takes["late"]; ok || len(takes["retiring"]) == 0 {
		t.Fatalf("takes %v, want the current round's sender only", takes)
	}
	refuseAll()
	again, err := r1.ComputeTakes(ctx, cur)
	if err != nil || !reflect.DeepEqual(again, takes) {
		t.Fatalf("takes after the stale ops = %v, %v; want the stored %v", again, err, takes)
	}
	sent, err := retiring.SendData(ctx, cur, "r1", takes["retiring"])
	if err != nil || sent.Pairs == 0 {
		t.Fatalf("SendData with the current round's picks = %+v, %v", sent, err)
	}
}

// TestOfferDuringComputeTakes: a late offer of the round may land while
// phase 2 reads the round's offers (run with -race).
func TestOfferDuringComputeTakes(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, r1, 20)
	ctx := context.Background()
	list := map[int]fusecache.List{r1.Cache().PopulatedClasses()[0]: {3, 2, 1}}
	for round := uint64(1); round <= 50; round++ {
		if err := r1.OfferMetadata(ctx, "s", round, list); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := r1.ComputeTakes(ctx, round); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := r1.OfferMetadata(ctx, "late", round, list); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
}
