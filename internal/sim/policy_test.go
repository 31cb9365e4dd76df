package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/hashring"
)

// newTestClock hands out strictly increasing timestamps, 1µs apart.
func newTestClock() *clock.Fake { return clock.NewFake(time.Unix(1_700_000_000, 0), time.Microsecond) }

func addTestNode(t *testing.T, reg *agent.Registry, name string, pages int, clk *clock.Fake) *agent.Agent {
	t.Helper()
	cc, err := cache.New(int64(pages)*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(name, cc, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(a)
	return a
}

func TestPolicyString(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{Baseline, "baseline"},
		{Naive, "naive"},
		{CacheScale, "cachescale"},
		{ElMem, "elmem"},
		{Policy(9), "Policy(9)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestPickRandomRetiring(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	members := []string{"a", "b", "c", "d", "e"}
	picked := pickRandomRetiring(rng, members, 2)
	if len(picked) != 2 || picked[0] == picked[1] {
		t.Fatalf("picked %v", picked)
	}
	seen := map[string]bool{}
	for _, m := range members {
		seen[m] = true
	}
	for _, p := range picked {
		if !seen[p] {
			t.Fatalf("picked non-member %q", p)
		}
	}
}

func TestPickRandomCoversAllMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	members := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[pickRandomRetiring(rng, members, 1)[0]]++
	}
	for _, m := range members {
		if counts[m] < 50 {
			t.Fatalf("member %s picked %d of 300 — not uniform", m, counts[m])
		}
	}
}

func TestNaiveScaleInMigratesFraction(t *testing.T) {
	reg := agent.NewRegistry()
	clk := newTestClock()
	retiring := addTestNode(t, reg, "retiring", 2, clk)
	addTestNode(t, reg, "r1", 2, clk)
	addTestNode(t, reg, "r2", 2, clk)
	for i := 0; i < 300; i++ {
		if err := retiring.Cache().Set(fmt.Sprintf("key-%05d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := naiveScaleIn(context.Background(), reg, 1, []string{"retiring"}, []string{"r1", "r2"}, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	want := 300 * 2 / 3
	if moved != want {
		t.Fatalf("moved %d, want %d", moved, want)
	}
	// Migrated keys live on their hash targets.
	ring, err := hashring.New([]string{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%05d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := reg.Get(owner)
		if err != nil {
			t.Fatal(err)
		}
		if ag.Cache().Contains(key) {
			found++
		}
	}
	if found != want {
		t.Fatalf("found %d migrated keys, want %d", found, want)
	}
}

// TestNaiveCanEvictHotterItems demonstrates the paper's criticism of
// Naive: with a full receiver, uncoordinated imports evict receiver items
// even when the receiver's data is hotter than the migrated data.
func TestNaiveCanEvictHotterItems(t *testing.T) {
	reg := agent.NewRegistry()
	clk := newTestClock()
	retiring := addTestNode(t, reg, "retiring", 1, clk)
	receiver := addTestNode(t, reg, "r1", 1, clk)

	// Retiring data set FIRST → colder than everything on the receiver.
	for i := 0; i < 200; i++ {
		if err := retiring.Cache().Set(fmt.Sprintf("cold-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := receiver.Cache().Set(fmt.Sprintf("hot-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}

	moved, err := naiveScaleIn(context.Background(), reg, 1, []string{"retiring"}, []string{"r1"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 100 {
		t.Fatalf("moved %d, want 100", moved)
	}
	evicted := 0
	for i := 0; i < perPage; i++ {
		if !receiver.Cache().Contains(fmt.Sprintf("hot-%05d", i)) {
			evicted++
		}
	}
	if evicted != 100 {
		t.Fatalf("naive evicted %d hot items, want 100 (its flaw)", evicted)
	}
}

// TestNaiveMatchesBruteForce is Naive's differential test: on a seeded
// four-node tier with unique stamps, scaling in two nodes migrates exactly
// the top ⌊fraction·ClassLen⌋ items of each retiring node's class — ranked
// here by a sort of the MRU lists, independent of the scanner the agents
// pick through — each to its owner on the retained ring.
func TestNaiveMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		reg := agent.NewRegistry()
		clk := newTestClock()
		rng := rand.New(rand.NewSource(seed))
		nodes := []string{"n0", "n1", "n2", "n3"}
		for _, name := range nodes {
			a := addTestNode(t, reg, name, 16, clk)
			sizes := []int{8, 200, 700}
			for i := 0; i < 1500; i++ {
				key := fmt.Sprintf("%s-%05d", name, i)
				if err := a.Cache().Set(key, make([]byte, sizes[rng.Intn(len(sizes))])); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 { // reorder the MRU lists
					_, _ = a.Cache().Get(fmt.Sprintf("%s-%05d", name, rng.Intn(i+1)))
				}
			}
		}
		perm := rng.Perm(len(nodes))
		retiring := []string{nodes[perm[0]], nodes[perm[1]]}
		retained := []string{nodes[perm[2]], nodes[perm[3]]}
		const fraction = 0.5
		ring, err := hashring.New(retained)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]map[string]bool) // target → migrated keys
		total := 0
		for _, name := range retiring {
			a, _ := reg.Get(name)
			c := a.Cache()
			for _, classID := range c.PopulatedClasses() {
				runs, err := c.ClassOrderByShard(classID)
				if err != nil {
					t.Fatal(err)
				}
				var all []cache.ItemMeta
				for _, run := range runs {
					all = append(all, run...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i].LastAccess.After(all[j].LastAccess) })
				for i := 1; i < len(all); i++ {
					if all[i].LastAccess.Equal(all[i-1].LastAccess) {
						t.Fatalf("seed %d: %s holds two items stamped %v", seed, name, all[i].LastAccess)
					}
				}
				for _, m := range all[:int(float64(c.ClassLen(classID))*fraction)] {
					owner, err := ring.Get(m.Key)
					if err != nil {
						t.Fatal(err)
					}
					if want[owner] == nil {
						want[owner] = make(map[string]bool)
					}
					want[owner][m.Key] = true
					total++
				}
			}
		}
		moved, err := naiveScaleIn(context.Background(), reg, 1, retiring, retained, fraction)
		if err != nil {
			t.Fatal(err)
		}
		if moved != total {
			t.Fatalf("seed %d: moved %d, brute force selects %d", seed, moved, total)
		}
		for _, target := range retained {
			a, _ := reg.Get(target)
			got := 0
			for _, metas := range a.Cache().DumpAll(func(key string) bool { return !strings.HasPrefix(key, target+"-") }) {
				for _, m := range metas {
					if !want[target][m.Key] {
						t.Fatalf("seed %d: %s received %q, which brute force does not select for it", seed, target, m.Key)
					}
					got++
				}
			}
			if got != len(want[target]) {
				t.Fatalf("seed %d: %s received %d items, brute force selects %d", seed, target, got, len(want[target]))
			}
		}
	}
}

// TestSecondaryLifecycle checks CacheScale's secondary: once armed it
// serves a retired node's items even after the node leaves the registry,
// each hit moves the item out of the secondary, and the expire event
// drops it.
func TestSecondaryLifecycle(t *testing.T) {
	reg := agent.NewRegistry()
	clk := newTestClock()
	retiring := addTestNode(t, reg, "retiring", 1, clk)
	for _, key := range []string{"warm-key", "late-key"} {
		if err := retiring.Cache().Set(key, []byte("value-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	s := &simulation{reg: reg}
	deadline := clk.Now().Add(2 * time.Minute)
	if err := s.armSecondary([]string{"retiring"}, deadline); err != nil {
		t.Fatal(err)
	}
	if len(s.pending) != 1 || s.pending[0].kind != "secondary-expire" || !s.pending[0].at.Equal(deadline) {
		t.Fatalf("pending = %+v, want one secondary-expire at %v", s.pending, deadline)
	}
	reg.Deregister("retiring") // retire drops the node right after arming

	value, ok := s.secondaryTake("warm-key")
	if !ok || string(value) != "value-warm-key" {
		t.Fatalf("secondaryTake = %q, %v", value, ok)
	}
	if retiring.Cache().Contains("warm-key") {
		t.Fatal("CacheScale hit must remove the item from the secondary")
	}
	if _, ok := s.secondaryTake("warm-key"); ok {
		t.Fatal("item served twice from secondary")
	}

	if err := s.handleEvent(s.pending[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.secondaryTake("late-key"); ok {
		t.Fatal("expired secondary served a lookup")
	}
	if !retiring.Cache().Contains("late-key") {
		t.Fatal("expired secondary still took an item")
	}
}
