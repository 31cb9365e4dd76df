package agent

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fusecache"
	"repro/internal/hashring"
)

// testClock hands out strictly increasing timestamps.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Microsecond)
	return c.t
}

func newNode(t *testing.T, reg *Registry, name string, pages int, clk *testClock) *Agent {
	t.Helper()
	c, err := cache.New(int64(pages)*cache.PageSize, cache.WithClock(clk.Now))
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

func TestNewValidation(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	c, err := cache.New(cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("", c, reg); err == nil {
		t.Fatal("want error for empty node name")
	}
	if _, err := New("n", nil, reg); err == nil {
		t.Fatal("want error for nil cache")
	}
	if _, err := New("n", c, nil); err == nil {
		t.Fatal("want error for nil transport")
	}
}

func TestScoreReport(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 2, clk)
	for i := 0; i < 10; i++ {
		if err := a.Cache().Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep := a.Score(context.Background())
	if rep.Node != "n1" {
		t.Fatalf("Node = %q", rep.Node)
	}
	if rep.Items != 10 {
		t.Fatalf("Items = %d, want 10", rep.Items)
	}
	if len(rep.Medians) != 1 || len(rep.Weights) != 1 {
		t.Fatalf("report covers %d/%d classes, want 1/1", len(rep.Medians), len(rep.Weights))
	}
	for classID, w := range rep.Weights {
		if w != 1.0 {
			t.Fatalf("single-class weight = %v, want 1", w)
		}
		if rep.Medians[classID] == 0 {
			t.Fatal("median timestamp missing")
		}
	}
}

// TestScoreMedianIsMergedPosition: a class median is the item at the
// middle of the global MRU order, however the items landed across shards.
func TestScoreMedianIsMergedPosition(t *testing.T) {
	clk := newTestClock()
	c, err := cache.New(64*cache.PageSize, cache.WithClock(clk.Now), cache.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("n1", c, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 9 items the median is MRU position 4 counting from the hottest.
	if got, want := a.Score(context.Background()).Medians[0], metas[4].LastAccess.UnixNano(); got != want {
		t.Fatalf("median = %d, want the merged MRU-position-4 timestamp %d", got, want)
	}
	empty := newNode(t, NewRegistry(), "n2", 1, clk)
	if rep := empty.Score(context.Background()); len(rep.Medians) != 0 {
		t.Fatalf("empty node reports medians %v", rep.Medians)
	}
}

// TestScoreSkipsExpired: dead items do not drag a node's score colder —
// the median is taken over the live items phase 1 would offer, and a class
// holding only expired items has no median.
func TestScoreSkipsExpired(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	deadline := clk.Now().Add(time.Second)
	for i := 0; i < 4; i++ {
		if err := a.Cache().SetExpiring(fmt.Sprintf("dying-%d", i), []byte("val"), deadline); err != nil {
			t.Fatal(err)
		}
	}
	clk.mu.Lock()
	clk.t = deadline.Add(time.Minute)
	clk.mu.Unlock()
	if rep := a.Score(context.Background()); len(rep.Medians) != 0 {
		t.Fatalf("medians %v reported for a class holding only expired items", rep.Medians)
	}
	populate(t, a, 5)
	live, err := a.Cache().DumpClass(0, nil)
	if err != nil || len(live) != 5 {
		t.Fatalf("dump = %v, %v; want the 5 live items", live, err)
	}
	if got, want := a.Score(context.Background()).Medians[0], live[2].LastAccess.UnixNano(); got != want {
		t.Fatalf("median = %d, want the live half's median %d", got, want)
	}
}

// TestScoreIgnoresReplicaCopies: hot-key replica copies sit outside the
// owned filter, so a node holding them scores exactly as it does without
// them (Section III-C scores what the node would have to migrate).
func TestScoreIgnoresReplicaCopies(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 2, clk)
	a.SetOwnedFilter(func(key string) bool { return !strings.HasPrefix(key, "replica-") })
	populate(t, a, 100)
	before := a.Score(context.Background())
	for i := 0; i < 60; i++ { // hotter than every owned item
		if err := a.Cache().Set(fmt.Sprintf("replica-%03d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	after := a.Score(context.Background())
	if !maps.Equal(after.Medians, before.Medians) || !maps.Equal(after.Weights, before.Weights) {
		t.Fatalf("score moved with replica copies: medians %v → %v, weights %v → %v",
			before.Medians, after.Medians, before.Weights, after.Weights)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	_ = a
	if _, err := reg.Peer("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Peer("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if _, err := reg.Get("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if got := reg.Nodes(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("Nodes = %v", got)
	}
	reg.Deregister("n1")
	if got := reg.Nodes(); len(got) != 0 {
		t.Fatalf("Nodes after deregister = %v", got)
	}
}

// populate fills an agent's cache with n small items named <node>-key-<i>.
func populate(t *testing.T, a *Agent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-key-%05d", a.Node(), i)
		if err := a.Cache().Set(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestThreePhaseMigration(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 2, clk)
	r1 := newNode(t, reg, "r1", 2, clk)
	r2 := newNode(t, reg, "r2", 2, clk)
	populate(t, retiring, 500)
	populate(t, r1, 100)
	populate(t, r2, 100)
	retained := []string{"r1", "r2"}

	// Phase 1.
	if err := retiring.SendMetadata(context.Background(), retained); err != nil {
		t.Fatal(err)
	}
	if r1.PendingOffers() != 1 || r2.PendingOffers() != 1 {
		t.Fatalf("offers = %d/%d, want 1/1", r1.PendingOffers(), r2.PendingOffers())
	}

	// Phase 2.
	takes1, err := r1.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	takes2, err := r2.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	count1, count2 := 0, 0
	for _, byClass := range takes1 {
		for _, c := range byClass {
			count1 += c
		}
	}
	for _, byClass := range takes2 {
		for _, c := range byClass {
			count2 += c
		}
	}
	// Plenty of free space on both receivers: everything offered is taken.
	if count1+count2 != 500 {
		t.Fatalf("takes total %d, want 500", count1+count2)
	}

	// Phase 3.
	sent1, err := retiring.SendData(context.Background(), "r1", takes1["retiring"], retained)
	if err != nil {
		t.Fatal(err)
	}
	sent2, err := retiring.SendData(context.Background(), "r2", takes2["retiring"], retained)
	if err != nil {
		t.Fatal(err)
	}
	if sent1.Pairs != count1 || sent2.Pairs != count2 {
		t.Fatalf("sent %d/%d, want %d/%d", sent1.Pairs, sent2.Pairs, count1, count2)
	}

	// Every retiring key is now resident on its hash target.
	ring, err := hashring.New(retained)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("retiring-key-%05d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		target, err := reg.Get(owner)
		if err != nil {
			t.Fatal(err)
		}
		if !target.Cache().Contains(key) {
			t.Fatalf("key %s missing on target %s", key, owner)
		}
	}
	// Receivers kept their own data too (no capacity pressure).
	if !r1.Cache().Contains("r1-key-00000") {
		t.Fatal("r1 lost local data")
	}
}

func TestComputeTakesNoOffers(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	if _, err := a.ComputeTakes(context.Background()); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("err = %v, want ErrNoMetadata", err)
	}
}

func TestComputeTakesClearsOffers(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)
	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.ComputeTakes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r1.PendingOffers() != 0 {
		t.Fatal("offers not cleared after ComputeTakes")
	}
}

// TestMigrationSelectsHottest is the core correctness check: with the
// receiver full, only items hotter than the receiver's cold tail migrate.
func TestMigrationSelectsHottest(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)

	// Fill r1 completely with a full page of its class, then make the
	// retiring node's items the hottest by setting them afterwards.
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := r1.Cache().Set(fmt.Sprintf("r1-key-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	populate(t, retiring, 200) // all set later → hotter timestamps

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	takes, err := r1.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range takes["retiring"] {
		total += c
	}
	if total != 200 {
		t.Fatalf("takes = %d, want all 200 hotter items", total)
	}
	if _, err := retiring.SendData(context.Background(), "r1", takes["retiring"], []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	// All migrated keys resident; cache still at capacity; the receiver's
	// coldest 200 local keys were evicted.
	if got := r1.Cache().Len(); got != perPage {
		t.Fatalf("receiver holds %d items, want %d", got, perPage)
	}
	for i := 0; i < 200; i++ {
		if !r1.Cache().Contains(fmt.Sprintf("retiring-key-%05d", i)) {
			t.Fatalf("hot migrated key %d missing", i)
		}
	}
	evicted := 0
	for i := 0; i < perPage; i++ {
		if !r1.Cache().Contains(fmt.Sprintf("r1-key-%05d", i)) {
			evicted++
		}
	}
	if evicted != 200 {
		t.Fatalf("receiver evicted %d local items, want 200", evicted)
	}
}

// TestMigrationRespectsCapacityWhenSendersColder: a full receiver whose
// items are hotter than the senders' keeps everything; nothing migrates.
func TestMigrationRespectsCapacityWhenSendersColder(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	retiring := newNode(t, reg, "retiring", 1, clk)
	r1 := newNode(t, reg, "r1", 1, clk)

	populate(t, retiring, 200) // set first → colder
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := r1.Cache().Set(fmt.Sprintf("r1-key-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	takes, err := r1.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range takes["retiring"] {
		total += c
	}
	if total != 0 {
		t.Fatalf("takes = %d, want 0 (receiver full of hotter items)", total)
	}
}

func TestSendMetadataEmptyRetained(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	if err := a.SendMetadata(context.Background(), nil); err == nil {
		t.Fatal("want error for empty retained membership")
	}
}

func TestSendDataUnknownPeer(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	populate(t, a, 10)
	classes := a.Cache().PopulatedClasses()
	pickFor(t, a, "ghost")
	_, err := a.SendData(context.Background(), "ghost", map[int]int{classes[0]: 5}, []string{"ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

// scaleOut drives, on in-process agents, the pipeline the Master runs for
// a scale-out — the paper's hash split (Section III-D4) through the
// three migration phases: every sender offers under the full membership,
// every newcomer runs FuseCache, every sender pushes its takes, and then
// every sender releases what it no longer owns. It returns the summed push
// stats and the released count.
func scaleOut(t *testing.T, senders, newcomers []*Agent, full []string) (SendStats, int) {
	t.Helper()
	ctx := context.Background()
	for _, s := range senders {
		if err := s.SendMetadata(ctx, full); err != nil {
			t.Fatal(err)
		}
	}
	var sent SendStats
	for _, n := range newcomers {
		takes, err := n.ComputeTakes(ctx)
		if errors.Is(err, ErrNoMetadata) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range senders {
			st, err := s.SendData(ctx, n.Node(), takes[s.Node()], full)
			if err != nil {
				t.Fatal(err)
			}
			sent.Pairs += st.Pairs
			sent.Unapplied += st.Unapplied
		}
	}
	released := 0
	for _, s := range senders {
		n, err := s.Release(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		released += n
	}
	return sent, released
}

func TestHashSplitScaleOut(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	existing := []*Agent{
		newNode(t, reg, "e1", 2, clk),
		newNode(t, reg, "e2", 2, clk),
		newNode(t, reg, "e3", 2, clk),
	}
	// Populate nodes with keys they own under the pre-scale-out ring.
	oldRing, err := hashring.New([]string{"e1", "e2", "e3"})
	if err != nil {
		t.Fatal(err)
	}
	byNode := make(map[string]*Agent)
	for _, a := range existing {
		byNode[a.Node()] = a
	}
	const keys = 3000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := oldRing.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := byNode[owner].Cache().Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Scale out to 4 nodes.
	byNode["new1"] = newNode(t, reg, "new1", 2, clk)
	full := []string{"e1", "e2", "e3", "new1"}
	sent, released := scaleOut(t, existing, []*Agent{byNode["new1"]}, full)
	// Consistent hashing: ≈ 1/4 of the keys move, every key resides on
	// its new owner only, and the movers were released by the old owners.
	if sent.Pairs < keys/8 || sent.Pairs > keys/2 {
		t.Fatalf("migrated %d of %d keys, want ≈1/4", sent.Pairs, keys)
	}
	if released != sent.Pairs || byNode["new1"].Cache().Len() != sent.Pairs {
		t.Fatalf("migrated %d, released %d, new node holds %d", sent.Pairs, released, byNode["new1"].Cache().Len())
	}
	newRing, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := newRing.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		for name, a := range byNode {
			if a.Cache().Contains(key) != (name == owner) {
				t.Fatalf("key %s on %s = %v, owner is %s", key, name, a.Cache().Contains(key), owner)
			}
		}
	}
	for _, a := range existing {
		if n := a.PendingOffers(); n != 0 {
			t.Fatalf("%s keeps %d offers after release", a.Node(), n)
		}
	}
}

// TestHashSplitNoNewMembers: a sender offers nothing for the keys it keeps,
// and releases nothing while it still owns them all.
func TestHashSplitNoNewMembers(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	populate(t, a, 10)
	if err := a.SendMetadata(context.Background(), []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	if n := a.PendingOffers(); n != 0 {
		t.Fatalf("a sender offered itself %d lists", n)
	}
	if n, err := a.Release(context.Background(), []string{"n1"}); err != nil || n != 0 {
		t.Fatalf("Release = %d, %v; want 0, nil", n, err)
	}
	if a.Cache().Len() != 10 {
		t.Fatalf("holds %d, want 10", a.Cache().Len())
	}
}

func TestHashSplitPreservesRecency(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	e1 := newNode(t, reg, "e1", 2, clk)
	populate(t, e1, 300)
	n1 := newNode(t, reg, "new1", 2, clk)
	want := make(map[string]time.Time)
	for _, metas := range e1.Cache().DumpAll(nil) {
		for _, m := range metas {
			want[m.Key] = m.LastAccess
		}
	}
	scaleOut(t, []*Agent{e1}, []*Agent{n1}, []string{"e1", "new1"})
	// Migrated items must carry their original timestamps.
	for _, metas := range n1.Cache().DumpAll(nil) {
		for _, m := range metas {
			if !m.LastAccess.Equal(want[m.Key]) {
				t.Fatalf("migrated %s has timestamp %v, want %v", m.Key, m.LastAccess, want[m.Key])
			}
		}
	}
}

func TestOfferMetadataRejectsEmptySender(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	if err := a.OfferMetadata(context.Background(), "", nil); err == nil {
		t.Fatal("want error for empty sender")
	}
}

// TestHashSplitCapsAtTargetShare: when the remapped set fits the
// newcomer, everything remapped arrives and nothing is refused at import.
func TestHashSplitCapsAtTargetShare(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	e1 := newNode(t, reg, "e1", 1, clk)
	n1 := newNode(t, reg, "new1", 1, clk)
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := e1.Cache().Set(fmt.Sprintf("e1-key-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	moved, released := scaleOut(t, []*Agent{e1}, []*Agent{n1}, []string{"e1", "new1"})
	// About half the keys remap to the new node — within its one page.
	if moved.Pairs == 0 || moved.Pairs > perPage {
		t.Fatalf("moved %d, want within (0, %d]", moved.Pairs, perPage)
	}
	if n1.Cache().Len() != moved.Pairs || released != moved.Pairs {
		t.Fatalf("target holds %d, sender reported %d, released %d", n1.Cache().Len(), moved.Pairs, released)
	}
}

// TestHashSplitPrefixIsHottest: when two senders' remapped sets outgrow
// the newcomer, FuseCache ships the globally hottest items it can hold,
// whichever sender holds them (the paper's rare case, Section III-D4).
func TestHashSplitPrefixIsHottest(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	e1 := newNode(t, reg, "e1", 2, clk)
	e2 := newNode(t, reg, "e2", 2, clk)
	n1 := newNode(t, reg, "new1", 1, clk)
	full := []string{"e1", "e2", "new1"}
	ring, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	// Only keys that remap, alternating senders, so the global hotness
	// order interleaves them.
	perPage := cache.PageSize / cache.MinChunkSize
	var inserted []string // cold → hot
	for i := 0; len(inserted) < perPage+perPage/2; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if owner, err := ring.Get(key); err != nil || owner != "new1" {
			continue
		}
		if err := []*Agent{e1, e2}[len(inserted)%2].Cache().Set(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, key)
	}
	moved, released := scaleOut(t, []*Agent{e1, e2}, []*Agent{n1}, full)
	held := n1.Cache().Len()
	if held == 0 || held >= len(inserted) || moved.Pairs-moved.Unapplied != held {
		t.Fatalf("newcomer holds %d of %d (moved %d, unapplied %d), want a binding cut",
			held, len(inserted), moved.Pairs, moved.Unapplied)
	}
	for i, key := range inserted {
		if on := n1.Cache().Contains(key); on != (i >= len(inserted)-held) {
			t.Fatalf("key %s (hotness rank %d from the cold end): on newcomer = %v", key, i, on)
		}
	}
	if released != len(inserted) {
		t.Fatalf("released %d, want every remapped key (%d)", released, len(inserted))
	}
}

// TestHashSplitCapTruncates forces the cut to bind on one sender: it holds
// only keys that remap to a newcomer a third its size, so FuseCache ships
// exactly what the newcomer can absorb — the hottest prefix — and the
// release drops the cold tail with the rest of the remapped set.
func TestHashSplitCapTruncates(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	full := []string{"e1", "e2", "new1"}
	ring, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	e1 := newNode(t, reg, "e1", 3, clk)
	e2 := newNode(t, reg, "e2", 3, clk)
	n1 := newNode(t, reg, "new1", 1, clk)

	// ~1 KiB values land in a large slab class, so a page holds few chunks
	// and the cap is reachable with a modest key count.
	val := make([]byte, 1000)
	if err := e1.Cache().Set("cap-probe", val); err != nil {
		t.Fatal(err)
	}
	classID := e1.Cache().PopulatedClasses()[0]
	if err := e1.Cache().Delete("cap-probe"); err != nil {
		t.Fatal(err)
	}
	limit := n1.Cache().ClassAbsorbCapacity(classID)
	count := 2 * limit // two of the sender's three pages: no eviction

	inserted := make([]string, 0, count)
	for i := 0; len(inserted) < count; i++ {
		key := fmt.Sprintf("cap-key-%06d", i)
		if owner, err := ring.Get(key); err != nil || owner != "new1" {
			continue // only keys the split will remap
		}
		if err := e1.Cache().Set(key, val); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, key) // insertion order = cold → hot
	}
	if got := e1.Cache().ClassLen(classID); got != count {
		t.Fatalf("premise broken: %d resident, inserted %d (eviction?)", got, count)
	}

	moved, released := scaleOut(t, []*Agent{e1, e2}, []*Agent{n1}, full)
	if moved.Pairs != limit || n1.Cache().Len() != limit {
		t.Fatalf("moved %d pairs, target holds %d; want exactly the newcomer's %d", moved.Pairs, n1.Cache().Len(), limit)
	}
	if released != count || e1.Cache().Len() != 0 {
		t.Fatalf("released %d, sender keeps %d; want all %d remapped keys gone", released, e1.Cache().Len(), count)
	}
	for i, key := range inserted {
		if on := n1.Cache().Contains(key); on != (i >= count-limit) {
			t.Fatalf("key %q at position %d: on target = %v, want only the hottest %d", key, i, on, limit)
		}
	}
}

// countingTransport counts import batch deliveries (session Sends).
type countingTransport struct {
	inner   Transport
	imports int
}

type countingPeer struct {
	inner Peer
	t     *countingTransport
}

func (c *countingTransport) Peer(node string) (Peer, error) {
	p, err := c.inner.Peer(node)
	if err != nil {
		return nil, err
	}
	return &countingPeer{inner: p, t: c}, nil
}

func (p *countingPeer) OfferMetadata(ctx context.Context, from string, lists map[int]fusecache.List) error {
	return p.inner.OfferMetadata(ctx, from, lists)
}

func (p *countingPeer) OpenImport(ctx context.Context, from string, epoch, fp uint64, window int) (ImportSession, error) {
	sess, err := p.inner.OpenImport(ctx, from, epoch, fp, window)
	if err != nil {
		return nil, err
	}
	return hookSession{sess, func(uint64) error {
		p.t.imports++
		return nil
	}}, nil
}

// TestSendDataBatchesPreserveMRUOrder: with a small batch size, migration
// must split into several pushes and the receiver's MRU list must end in
// exactly the same order as an unbatched transfer — hottest at the head.
func TestSendDataBatchesPreserveMRUOrder(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ct := &countingTransport{inner: reg}
	cc, err := cache.New(2*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	retiring, err := New("retiring", cc, ct, WithTransferBatchSize(7))
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(retiring)
	r1 := newNode(t, reg, "r1", 2, clk)
	populate(t, retiring, 100)

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	takes, err := r1.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sent, err := retiring.SendData(context.Background(), "r1", takes["retiring"], []string{"r1"})
	if err != nil {
		t.Fatal(err)
	}
	if sent.Pairs != 100 {
		t.Fatalf("sent %d, want 100", sent.Pairs)
	}
	if ct.imports < 100/7 {
		t.Fatalf("imports = %d, want batched pushes", ct.imports)
	}
	// The receiver's dump must be in non-increasing recency order.
	for _, classID := range r1.Cache().PopulatedClasses() {
		metas, err := r1.Cache().DumpClass(classID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(metas); i++ {
			if metas[i].LastAccess.After(metas[i-1].LastAccess) {
				t.Fatalf("class %d: receiver list out of MRU order at %d after batched import", classID, i)
			}
		}
	}
}

func TestHashSplitBatches(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ct := &countingTransport{inner: reg}
	cc, err := cache.New(2*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New("e1", cc, ct, WithTransferBatchSize(11))
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(e1)
	n1 := newNode(t, reg, "new1", 2, clk)
	populate(t, e1, 300)

	moved, _ := scaleOut(t, []*Agent{e1}, []*Agent{n1}, []string{"e1", "new1"})
	if moved.Pairs == 0 || n1.Cache().Len() != moved.Pairs {
		t.Fatalf("moved %d, target holds %d", moved.Pairs, n1.Cache().Len())
	}
	if ct.imports < moved.Pairs/11 {
		t.Fatalf("imports = %d for %d moved items, want batching", ct.imports, moved.Pairs)
	}
}

// TestReleaseDropsResidue: a key a sender holds for another surviving
// member (left by an earlier failed release) is offered to that member in
// phase 1 but never shipped, since only newcomers run phase 2. The release
// drops it, and the surviving member's release discards the stale offer so
// it cannot skew that member's next FuseCache.
func TestReleaseDropsResidue(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	e1 := newNode(t, reg, "e1", 1, clk)
	e2 := newNode(t, reg, "e2", 1, clk)
	n1 := newNode(t, reg, "new1", 1, clk)
	full := []string{"e1", "e2", "new1"}
	ring, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	residue := ""
	for i := 0; residue == ""; i++ {
		key := fmt.Sprintf("key-%d", i)
		if owner, err := ring.Get(key); err == nil && owner == "e2" {
			residue = key
		}
	}
	if err := e1.Cache().Set(residue, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e1.SendMetadata(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	if e2.PendingOffers() != 1 || n1.PendingOffers() != 0 {
		t.Fatalf("offers: e2 %d, new1 %d; want the residue offered to e2 only", e2.PendingOffers(), n1.PendingOffers())
	}
	for _, a := range []*Agent{e1, e2} {
		if _, err := a.Release(context.Background(), full); err != nil {
			t.Fatal(err)
		}
	}
	if e1.Cache().Contains(residue) || e2.PendingOffers() != 0 {
		t.Fatalf("after release: residue on e1 = %v, e2 offers = %d", e1.Cache().Contains(residue), e2.PendingOffers())
	}
}
