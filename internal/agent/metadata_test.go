package agent

// Phase-1 metadata tests: the routed timestamp export checked against the
// per-target DumpAll path it replaced (kept here only as the oracle), and
// the allocation guard that keeps the export O(targets × classes).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/fusecache"
	"repro/internal/hashring"
)

// newShardedNode is newNode with an explicit shard count.
func newShardedNode(t *testing.T, reg *Registry, name string, pages, shards int, clk *clock.Fake) *Agent {
	t.Helper()
	c, err := cache.New(int64(pages)*cache.PageSize, cache.WithClock(clk.Now), cache.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(name, c, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(a)
	return a
}

// fillMixed stores n items of several slab classes under the node's name:
// every tenth expires before the test reads it back, and every seventh
// write also re-reads an older key, so MRU order departs from insertion
// order. Sets the pool cannot place are skipped.
func fillMixed(t *testing.T, rng *rand.Rand, a *Agent, clk *clock.Fake, n int) {
	t.Helper()
	sizes := []int{8, 100, 300, 900, 3000}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-k%06d", a.Node(), i)
		val := make([]byte, sizes[rng.Intn(len(sizes))])
		var err error
		if i%10 == 0 {
			err = a.Cache().SetBytes([]byte(key), val, 0, clk.Now().Add(time.Second))
		} else {
			err = a.Cache().Set(key, val)
		}
		if err != nil && !errors.Is(err, cache.ErrOutOfMemory) {
			t.Fatal(err)
		}
		if i%7 == 0 {
			_, _ = a.Cache().Get(fmt.Sprintf("%s-k%06d", a.Node(), rng.Intn(i+1)))
		}
	}
}

// stampsOf projects dump metadata onto FuseCache hotness values.
func stampsOf(metas []cache.ItemMeta) fusecache.List {
	l := make(fusecache.List, len(metas))
	for i, m := range metas {
		l[i] = m.LastAccess.UnixNano()
	}
	return l
}

// oracleOffers is phase 1 as it ran before the routed export: one DumpAll
// per target, filtered by ownership and ring owner, projected to stamps.
func oracleOffers(sender *Agent, retained []string) map[string]map[int]fusecache.List {
	ring, err := hashring.New(retained)
	if err != nil {
		panic(err)
	}
	out := make(map[string]map[int]fusecache.List)
	for _, target := range retained {
		metas := sender.cache.DumpAll(sender.andOwned(func(key string) bool {
			owner, err := ring.Get(key)
			return err == nil && owner == target
		}))
		if len(metas) == 0 {
			continue
		}
		byClass := make(map[int]fusecache.List, len(metas))
		for classID, ms := range metas {
			byClass[classID] = stampsOf(ms)
		}
		out[target] = byClass
	}
	return out
}

// oracleTakes is phase 2 as it ran before: FuseCache per class over the
// offered lists, senders sorted, plus the receiver's own DumpClass list.
func oracleTakes(t *testing.T, receiver *Agent, offers map[string]map[int]fusecache.List) Takes {
	t.Helper()
	senders := make([]string, 0, len(offers))
	classSet := make(map[int]bool)
	for s, byClass := range offers {
		senders = append(senders, s)
		for classID := range byClass {
			classSet[classID] = true
		}
	}
	sort.Strings(senders)
	out := make(Takes, len(senders))
	for _, s := range senders {
		out[s] = make(map[int]int)
	}
	for classID := range classSet {
		lists := make([]fusecache.List, 0, len(senders)+1)
		for _, s := range senders {
			lists = append(lists, offers[s][classID])
		}
		own, err := receiver.cache.DumpClass(classID, receiver.andOwned(func(string) bool { return true }))
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, stampsOf(own))
		n := receiver.cache.ClassAbsorbCapacity(classID)
		if n < len(own) {
			n = len(own)
		}
		res, err := fusecache.TopN(lists, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range senders {
			if res.Take[i] > 0 {
				out[s][classID] = res.Take[i]
			}
		}
	}
	return out
}

// TestSendMetadataMatchesDumpOracle: on seeded multi-shard, multi-class
// caches holding expired items, with a hot-key owned filter installed on
// every node, each receiver gets exactly the per-class timestamp lists the
// old DumpAll path would have sent, and ComputeTakes over them equals
// FuseCache over the old path's lists — class by class, sender by sender.
func TestSendMetadataMatchesDumpOracle(t *testing.T) {
	ctx := context.Background()
	selective := false
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		clk := newTestClock()
		senders := []*Agent{
			newShardedNode(t, reg, "s1", 32, 4, clk),
			newShardedNode(t, reg, "s2", 32, 2, clk),
			newShardedNode(t, reg, "s3", 32, 4, clk),
		}
		receivers := []*Agent{
			newShardedNode(t, reg, "r1", 6+rng.Intn(4), 2, clk),
			newShardedNode(t, reg, "r2", 6+rng.Intn(4), 2, clk),
		}
		retained := []string{"r1", "r2"}
		// Hot-key replica copies (about one key in five) never migrate.
		owned := func(key string) bool { return hashring.KeyHash(key)%5 != 0 }
		for _, a := range append(senders, receivers...) {
			fillMixed(t, rng, a, clk, 1500+rng.Intn(1500))
			a.SetOwnedFilter(owned)
		}
		clk.Advance(time.Minute) // the expiring items are now dead

		want := make(map[string]map[string]map[int]fusecache.List) // receiver → sender → class
		for _, s := range senders {
			for target, byClass := range oracleOffers(s, retained) {
				if want[target] == nil {
					want[target] = make(map[string]map[int]fusecache.List)
				}
				want[target][s.Node()] = byClass
			}
		}
		for _, s := range senders {
			if err := s.SendMetadata(ctx, 1, retained); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range receivers {
			r.mu.Lock()
			got := r.round.offers
			r.mu.Unlock()
			if !reflect.DeepEqual(got, want[r.Node()]) {
				t.Fatalf("seed %d: %s received offers differ from the DumpAll oracle", seed, r.Node())
			}
			wantTakes := oracleTakes(t, r, want[r.Node()])
			takes, err := r.ComputeTakes(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			for sender, byClass := range wantTakes {
				for classID, n := range byClass {
					if takes[sender][classID] != n {
						t.Fatalf("seed %d: %s takes %d of %s's class %d, oracle %d",
							seed, r.Node(), takes[sender][classID], sender, classID, n)
					}
					if n < len(want[r.Node()][sender][classID]) {
						selective = true
					}
				}
			}
			if !reflect.DeepEqual(takes, wantTakes) {
				t.Fatalf("seed %d: %s takes %v, oracle %v", seed, r.Node(), takes, wantTakes)
			}
		}
	}
	if !selective {
		t.Fatal("no seed made FuseCache cut a list: the receivers are too roomy to test selection")
	}
}

// TestSendMetadataAllocsPerTargetClass guards the export's cost shape:
// routing 60 k items to three targets through the in-process Registry
// allocates a fixed budget per target and class, nothing per item.
func TestSendMetadataAllocsPerTargetClass(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	clk := newTestClock()
	sender := newShardedNode(t, reg, "s", 64, 4, clk)
	retained := []string{"r1", "r2", "r3"}
	for _, name := range retained {
		newNode(t, reg, name, 1, clk)
	}
	const items = 60_000
	sizes := []int{10, 100, 400}
	for i := 0; i < items; i++ {
		if err := sender.Cache().Set(fmt.Sprintf("key-%06d", i), make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	classes := len(sender.Cache().PopulatedClasses())
	if classes != len(sizes) {
		t.Fatalf("populated %d classes, want %d", classes, len(sizes))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := sender.SendMetadata(ctx, 1, retained); err != nil {
			t.Fatal(err)
		}
	})
	// A fixed budget per (target, class) pair plus the ring; the old path
	// spent several allocations per item.
	bound := 64 + 16*len(retained)*classes
	t.Logf("SendMetadata over %d items, %d targets, %d classes: %.0f allocs (bound %d)",
		items, len(retained), classes, allocs, bound)
	if allocs > float64(bound) {
		t.Fatalf("SendMetadata allocates %.0f times for %d items, want <= %d", allocs, items, bound)
	}
}

// andOwned composes the owned predicate with another key filter.
func (a *Agent) andOwned(f func(string) bool) func(string) bool {
	return func(key string) bool { return f(key) && a.owned(key) }
}
