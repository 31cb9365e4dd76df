package agent

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/hashring"
)

// tableKeyFor finds a key matching pred against the table, for building
// import batches aimed at keys that do or do not change owner.
func tableKeyFor(t *testing.T, pred func(string) bool) string {
	t.Helper()
	for i := 0; i < 200000; i++ {
		k := fmt.Sprintf("own%06d", i)
		if pred(k) {
			return k
		}
	}
	t.Fatal("no key matching predicate")
	return ""
}

// TestStaleImportDropped: once a handover settles a key away from a node, a replayed migration stream must not resurrect pairs on the
// outgoing owner.
func TestStaleImportDropped(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	recv := newNode(t, reg, "n1", 2, clk)

	// Settled on {n1,n3}; scale out toward {n1,n2,n3} — n1 hands some
	// keys to the newcomer n2.
	settled, err := hashring.NewTable([]string{"n1", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	inFlight, _, err := settled.BeginHandover([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}

	// A key n1 is handing to n2 (mid-handover either owner accepts), and
	// one n1 owns outright (its owner does not change).
	movingKey := tableKeyFor(t, func(k string) bool {
		if !inFlight.InFlightHash(hashring.KeyHash(k)) {
			return false
		}
		oldOwner, err := settled.Owner(k)
		if err != nil || oldOwner != "n1" {
			return false
		}
		newOwner, _, err := inFlight.ReadPlan(k)
		return err == nil && newOwner == "n2"
	})
	stableKey := tableKeyFor(t, func(k string) bool {
		if inFlight.InFlightHash(hashring.KeyHash(k)) {
			return false
		}
		o, err := inFlight.Owner(k)
		return err == nil && o == "n1"
	})

	recv.OwnershipChanged(inFlight)
	pairs := []cache.KV{
		{Key: movingKey, Value: []byte("m"), LastAccess: clk.Now()},
		{Key: stableKey, Value: []byte("s"), LastAccess: clk.Now()},
	}
	// Mid-handover both land: n1 is still an acceptable owner.
	if _, err := recv.ImportOpen("n3", 6, 98); err != nil {
		t.Fatal(err)
	}
	if _, n, err := recv.ImportFrame("n3", 6, 1, pairs); err != nil || n != 2 {
		t.Fatalf("mid-handover frame = (%d, %v), want 2 imports", n, err)
	}
	if _, ok := recv.Cache().Peek(movingKey); !ok {
		t.Fatal("in-flight pair rejected on a still-acceptable owner")
	}
	if recv.Counters().StaleDropped != 0 {
		t.Fatalf("StaleDropped = %d, want 0", recv.Counters().StaleDropped)
	}

	// Settle the handover: the moving key now belongs to the new owner
	// alone. A replayed stream frame must drop the moved pair and keep
	// the stable one.
	settled2, err := inFlight.Settle()
	if err != nil {
		t.Fatal(err)
	}
	recv.OwnershipChanged(settled2)
	if err := recv.Cache().Delete(movingKey); err != nil {
		t.Fatal(err)
	}
	if err := recv.Cache().Delete(stableKey); err != nil {
		t.Fatal(err)
	}

	if hw, err := recv.ImportOpen("n3", 7, 99); err != nil || hw != 0 {
		t.Fatalf("high-water = %d, %v", hw, err)
	}
	if _, n, err := recv.ImportFrame("n3", 7, 1, pairs); err != nil || n != 1 {
		t.Fatalf("replayed frame = (%d, %v), want 1 import", n, err)
	}
	if _, ok := recv.Cache().Peek(movingKey); ok {
		t.Fatal("stale pair resurrected after settle")
	}
	if _, ok := recv.Cache().Peek(stableKey); !ok {
		t.Fatal("still-owned pair dropped")
	}
	if got := recv.Counters().StaleDropped; got != 1 {
		t.Fatalf("StaleDropped = %d, want 1", got)
	}

	// The input batch itself is untouched (shared with the sender).
	if pairs[0].Key != movingKey || pairs[1].Key != stableKey {
		t.Fatal("filter mutated the caller's batch")
	}

	// Stale table replay must not reopen the gate.
	recv.OwnershipChanged(inFlight)
	if recv.acceptsImport(movingKey) {
		t.Fatal("stale announcement regressed the import gate")
	}
}
