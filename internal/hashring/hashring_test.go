package hashring

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func nodeNames(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

func TestNewAndGet(t *testing.T) {
	r, err := New(nodeNames(4))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Members()); n != 4 {
		t.Fatalf("%d members, want 4", n)
	}
	owner, err := r.Get("some-key")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.Members(), owner) {
		t.Fatalf("owner %q not a member", owner)
	}
}

func TestEmptyRing(t *testing.T) {
	r, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("k"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.GetN("k", 2); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("GetN err = %v, want ErrEmptyRing", err)
	}
}

func TestNewRejectsDuplicateMembers(t *testing.T) {
	if _, err := New([]string{"a", "a"}); !errors.Is(err, ErrDuplicateMember) {
		t.Fatal("want ErrDuplicateMember for duplicate initial members")
	}
}

func TestGetDeterministic(t *testing.T) {
	r, err := New(nodeNames(8))
	if err != nil {
		t.Fatal(err)
	}
	f := func(key string) bool {
		a, err1 := r.Get(key)
		b, err2 := r.Get(key)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBalancedDistribution(t *testing.T) {
	const k = 10
	r, err := New(nodeNames(k))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 100000
	for i := 0; i < keys; i++ {
		owner, err := r.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		counts[owner]++
	}
	want := float64(keys) / k
	for node, c := range counts {
		if dev := math.Abs(float64(c)-want) / want; dev > 0.35 {
			t.Errorf("node %s holds %d keys, %.0f%% off the even share", node, c, dev*100)
		}
	}
}

// TestScaleOutRemapsOneOverKPlusOne verifies the consistent-hashing property
// the paper relies on in Section III-D4: going from k to k+1 nodes moves
// about 1/(k+1) of the keys, all of them to the new node.
func TestScaleOutRemapsOneOverKPlusOne(t *testing.T) {
	// High virtual-node count tightens the new node's share around 1/(k+1);
	// the libmemcached default of 160 has wide variance per member.
	const k = 9
	r, err := newRing(nodeNames(k), 1024)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50000
	before := make([]string, keys)
	for i := 0; i < keys; i++ {
		owner, err := r.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = owner
	}
	newNode := fmt.Sprintf("node-%d", k)
	if r, err = newRing(nodeNames(k+1), 1024); err != nil {
		t.Fatal(err)
	}
	moved, movedElsewhere := 0, 0
	for i := 0; i < keys; i++ {
		owner, err := r.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if owner != before[i] {
			moved++
			if owner != newNode {
				movedElsewhere++
			}
		}
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d keys moved between existing nodes; consistent hashing must only move keys to the new node", movedElsewhere)
	}
	frac := float64(moved) / keys
	want := 1.0 / float64(k+1)
	if frac < want*0.6 || frac > want*1.6 {
		t.Fatalf("scale-out moved %.3f of keys, want ≈ %.3f", frac, want)
	}
}

// TestScaleInOnlyRemapsRetiringKeys verifies scale-in moves exactly the
// retiring node's keys, which is what lets retiring Agents compute phase-1
// targets locally.
func TestScaleInOnlyRemapsRetiringKeys(t *testing.T) {
	const k = 10
	r, err := New(nodeNames(k))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50000
	before := make([]string, keys)
	for i := 0; i < keys; i++ {
		owner, err := r.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = owner
	}
	const retiring = "node-3"
	if r, err = New(slices.DeleteFunc(nodeNames(k), func(m string) bool { return m == retiring })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		owner, err := r.Get(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if before[i] == retiring {
			if owner == retiring {
				t.Fatalf("key %d still routed to retiring node", i)
			}
		} else if owner != before[i] {
			t.Fatalf("key %d moved from %s to %s although its owner was retained", i, before[i], owner)
		}
	}
}

func TestGetN(t *testing.T) {
	r, err := New(nodeNames(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetN("some-key", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetN returned %d members, want 3", len(got))
	}
	seen := make(map[string]struct{})
	for _, m := range got {
		if _, dup := seen[m]; dup {
			t.Fatalf("GetN returned duplicate member %q", m)
		}
		seen[m] = struct{}{}
	}
	owner, _ := r.Get("some-key")
	if got[0] != owner {
		t.Fatalf("GetN[0] = %s, want owner %s", got[0], owner)
	}
}

func TestGetNClampsToMembership(t *testing.T) {
	r, err := New(nodeNames(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetN("k", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetN(10) over 3 members returned %d, want 3", len(got))
	}
	if got, _ := r.GetN("k", 0); got != nil {
		t.Fatal("GetN(0) should return nil")
	}
}

func TestMembersSorted(t *testing.T) {
	r, err := New([]string{"c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Members()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	r, err := New(nodeNames(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				owner, err := r.Get(key)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if got, err := r.GetN(key, 2); err != nil || got[0] != owner {
					t.Errorf("GetN(%s) = %v, %v; owner %s", key, got, err, owner)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestKeyHashStable(t *testing.T) {
	if KeyHash("abc") != KeyHash("abc") {
		t.Fatal("KeyHash not stable")
	}
	if KeyHash("abc") == KeyHash("abd") {
		t.Fatal("trivial collision — hash is suspect")
	}
}

// TestPropertyChurnStability: after any sequence of joins and leaves,
// the ring over the live members routes every key to a live member,
// deterministically.
func TestPropertyChurnStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		live := []string{"node-0", "node-1", "node-2"}
		for op := 0; op < 40; op++ {
			name := fmt.Sprintf("churn-%d", rng.Intn(10))
			if i := slices.Index(live, name); i >= 0 {
				live = slices.Delete(live, i, i+1)
			} else {
				live = append(live, name)
			}
			r, err := New(live)
			if err != nil {
				return false
			}
			key := fmt.Sprintf("key-%d", op)
			owner, err := r.Get(key)
			if len(live) == 0 {
				if !errors.Is(err, ErrEmptyRing) {
					return false
				}
				continue
			}
			if err != nil || !slices.Contains(live, owner) {
				return false
			}
			if again, _ := r.Get(key); again != owner || len(r.Members()) != len(live) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyMinimalDisruption: dropping a member remaps only its keys,
// and adding it back restores the exact original routing.
func TestPropertyMinimalDisruption(t *testing.T) {
	r, err := New(nodeNames(5))
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]string)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		owner, err := r.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		before[key] = owner
	}
	without, err := New(slices.DeleteFunc(nodeNames(5), func(m string) bool { return m == "node-2" }))
	if err != nil {
		t.Fatal(err)
	}
	for key, owner := range before {
		if got, _ := without.Get(key); got == "node-2" || owner != "node-2" && got != owner {
			t.Fatalf("key %s routes to %s without node-2, was %s", key, got, owner)
		}
	}
	if r, err = New(nodeNames(5)); err != nil {
		t.Fatal(err)
	}
	for key, want := range before {
		got, err := r.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("key %s moved %s→%s across remove/re-add", key, want, got)
		}
	}
}

// binarySearch is the plain lower-bound search over the whole ring that the
// jump table replaces, kept as the oracle for TestJumpSearchMatchesBinary.
func binarySearch(r *Ring, h uint64) int {
	i, _ := slices.BinarySearch(r.hashes, h)
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// TestJumpSearchMatchesBinary checks the jump-table lookup against a binary
// search over the whole ring: 1 M random hashes, plus every point hash and
// its neighbours (exact hits and the arcs either side), both ends of every
// jump bucket, and the top of the circle, where the lookup wraps to the
// first point. Ring sizes cover an empty-bucket-heavy ring and a crowded
// one.
func TestJumpSearchMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ members, replicas int }{
		{1, 1}, {4, DefaultReplicas}, {64, 400},
	} {
		r, err := newRing(nodeNames(tc.members), tc.replicas)
		if err != nil {
			t.Fatal(err)
		}
		check := func(h uint64) {
			if got, want := r.search(h), binarySearch(r, h); got != want {
				t.Fatalf("%d members × %d: search(%#x) = %d, binary search = %d", tc.members, tc.replicas, h, got, want)
			}
		}
		for i := 0; i < 1_000_000; i++ {
			check(rng.Uint64())
		}
		for _, p := range r.hashes {
			check(p - 1)
			check(p)
			check(p + 1)
		}
		for b := uint64(0); b < 1<<jumpBits; b++ {
			lo := b << (64 - jumpBits)
			check(lo)
			check(lo | (1<<(64-jumpBits) - 1))
		}
		check(0)
		check(math.MaxUint64)
		check(r.hashes[len(r.hashes)-1] + 1) // past the last point: wraps
	}
}

// BenchmarkGetHash times one ring lookup on a 4-member ring.
func BenchmarkGetHash(b *testing.B) {
	r, err := New(nodeNames(4))
	if err != nil {
		b.Fatal(err)
	}
	hashes := make([]uint64, 1<<10)
	rng := rand.New(rand.NewSource(1))
	for i := range hashes {
		hashes[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.GetHash(hashes[i&(len(hashes)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}
