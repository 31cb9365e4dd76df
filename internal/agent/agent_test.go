package agent

import (
	"context"
	"errors"
	"fmt"
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
	_, err := a.SendData(context.Background(), "ghost", map[int]int{classes[0]: 5}, []string{"ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
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
	oldMembers := []string{"e1", "e2", "e3"}
	oldRing, err := hashring.New(oldMembers)
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
	newNodeAgent := newNode(t, reg, "new1", 2, clk)
	full := []string{"e1", "e2", "e3", "new1"}
	migrated := 0
	for _, a := range existing {
		n, err := a.HashSplit(context.Background(), []string{"new1"}, full)
		if err != nil {
			t.Fatal(err)
		}
		migrated += n.Pairs
	}
	// Consistent hashing: ≈ 1/4 of the keys move, every key resident on
	// its new owner, and movers were deleted from the old owners.
	if migrated < keys/8 || migrated > keys/2 {
		t.Fatalf("migrated %d of %d keys, want ≈1/4", migrated, keys)
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
		if !byNode[owner].onRingOrNew(newNodeAgent, owner).Cache().Contains(key) {
			t.Fatalf("key %s missing on new owner %s", key, owner)
		}
	}
	if newNodeAgent.Cache().Len() != migrated {
		t.Fatalf("new node holds %d, want %d", newNodeAgent.Cache().Len(), migrated)
	}
}

// onRingOrNew resolves the agent for an owner in the scale-out test.
func (a *Agent) onRingOrNew(newAgent *Agent, owner string) *Agent {
	if owner == newAgent.Node() {
		return newAgent
	}
	return a
}

func TestHashSplitNoNewMembers(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "n1", 1, clk)
	populate(t, a, 10)
	n, err := a.HashSplit(context.Background(), nil, []string{"n1"})
	if err != nil || n.Pairs != 0 {
		t.Fatalf("HashSplit(nil) = %d, %v; want 0, nil", n.Pairs, err)
	}
}

func TestHashSplitPreservesRecency(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	e1 := newNode(t, reg, "e1", 2, clk)
	populate(t, e1, 300)
	n1 := newNode(t, reg, "new1", 2, clk)
	full := []string{"e1", "new1"}
	if _, err := e1.HashSplit(context.Background(), []string{"new1"}, full); err != nil {
		t.Fatal(err)
	}
	// Migrated items must carry their original timestamps.
	for _, classID := range n1.Cache().PopulatedClasses() {
		metas, err := n1.Cache().DumpClass(classID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			if m.LastAccess.IsZero() {
				t.Fatalf("migrated %s lost its timestamp", m.Key)
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

// TestHashSplitCapsAtTargetShare checks the III-D4 rare case: when the
// remapped set would exceed the sender's share of a fresh target's
// memory, only the MRU prefix (the FuseCache top of the single sorted
// list) is shipped.
func TestHashSplitCapsAtTargetShare(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	// A single existing node with 1 page splitting to one new node:
	// limit = targetPages(1) × chunksPerPage / existing(1) per class.
	e1 := newNode(t, reg, "e1", 1, clk)
	n1 := newNode(t, reg, "new1", 1, clk)
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := e1.Cache().Set(fmt.Sprintf("e1-key-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := e1.HashSplit(context.Background(), []string{"new1"}, []string{"e1", "new1"})
	if err != nil {
		t.Fatal(err)
	}
	// About half the keys remap to the new node — under the one-page
	// limit, so everything remapped must arrive, and nothing is dropped
	// at import (new node can absorb one page of this class).
	if moved.Pairs == 0 || moved.Pairs > perPage {
		t.Fatalf("moved %d, want within (0, %d]", moved.Pairs, perPage)
	}
	if n1.Cache().Len() != moved.Pairs {
		t.Fatalf("target holds %d, sender reported %d — import dropped pairs", n1.Cache().Len(), moved.Pairs)
	}
}

// TestHashSplitPrefixIsHottest: when a cap binds, the shipped pairs must
// be the hottest of the remapped set.
func TestHashSplitPrefixIsHottest(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	// Two existing nodes → per-target limit is half a node's capacity.
	e1 := newNode(t, reg, "e1", 1, clk)
	newNode(t, reg, "e2", 1, clk)
	n1 := newNode(t, reg, "new1", 1, clk)
	perPage := cache.PageSize / cache.MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := e1.Cache().Set(fmt.Sprintf("e1-key-%05d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := e1.HashSplit(context.Background(), []string{"new1"}, []string{"e1", "e2", "new1"})
	if err != nil {
		t.Fatal(err)
	}
	limit := perPage / 2
	if moved.Pairs > limit {
		t.Fatalf("moved %d, cap is %d", moved.Pairs, limit)
	}
	// All shipped items are resident on the target with their recency intact.
	if n1.Cache().Len() != moved.Pairs {
		t.Fatalf("target holds %d, want %d", n1.Cache().Len(), moved.Pairs)
	}
}

// TestHashSplitCapTruncates forces the III-D4 keep-top cap to actually
// bind: the sender is populated ONLY with keys that remap to the new node,
// so the remapped share (everything) exceeds the sender's per-target limit
// of the new node's memory, and the cap must truncate the plan to exactly
// the limit — keeping the hottest prefix and leaving the cold tail local.
func TestHashSplitCapTruncates(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	// Two existing nodes in the full membership halve the per-sender limit:
	// limit = targetPages × chunksPerPage / existing.
	full := []string{"e1", "e2", "new1"}
	ring, err := hashring.New(full)
	if err != nil {
		t.Fatal(err)
	}
	e1 := newNode(t, reg, "e1", 2, clk)
	newNode(t, reg, "e2", 2, clk)
	n1 := newNode(t, reg, "new1", 2, clk)

	// ~1 KiB values land in a large slab class, so a page holds few chunks
	// and the cap is reachable with a modest key count. Probe the class
	// first to size the insertion: more than the limit (so the cap binds),
	// well under the sender's capacity (so nothing evicts).
	val := make([]byte, 1000)
	if err := e1.Cache().Set("cap-probe", val); err != nil {
		t.Fatal(err)
	}
	classID := e1.Cache().PopulatedClasses()[0]
	chunk := e1.Cache().ChunkSizes()[classID]
	e1.Cache().Delete("cap-probe")
	targetPages := int(e1.Cache().Capacity() / cache.PageSize)
	limit := targetPages * (cache.PageSize / chunk) / 2 // existing = 2
	count := limit + limit/2                            // 0.75 × capacity: no eviction

	inserted := make([]string, 0, count)
	for i := 0; len(inserted) < count; i++ {
		key := fmt.Sprintf("cap-key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if owner != "new1" {
			continue // only keys the split will remap
		}
		if err := e1.Cache().Set(key, val); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, key) // insertion order = cold → hot
	}
	remapped := e1.Cache().ClassLen(classID)
	if remapped != count {
		t.Fatalf("premise broken: %d resident, inserted %d (eviction?)", remapped, count)
	}
	if remapped <= limit {
		t.Fatalf("premise broken: %d remapped keys do not exceed the limit %d", remapped, limit)
	}

	moved, err := e1.HashSplit(context.Background(), []string{"new1"}, full)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Pairs != limit {
		t.Fatalf("moved %d pairs, want the cap to truncate to exactly %d", moved.Pairs, limit)
	}
	if n1.Cache().Len() != limit {
		t.Fatalf("target holds %d, want %d", n1.Cache().Len(), limit)
	}
	// The shipped prefix must be the hottest `limit` of the remapped set;
	// survivors of the cut stay resident on the sender.
	resident := make(map[string]bool, remapped)
	for _, key := range inserted {
		resident[key] = e1.Cache().Contains(key)
	}
	hottest := inserted[len(inserted)-limit:]
	for _, key := range hottest {
		if !n1.Cache().Contains(key) {
			t.Fatalf("hot key %q missing on the target after the capped split", key)
		}
		if resident[key] {
			t.Fatalf("hot key %q still resident on the sender after shipping", key)
		}
	}
	for _, key := range inserted[:len(inserted)-limit] {
		if n1.Cache().Contains(key) {
			t.Fatalf("cold key %q crossed the cap", key)
		}
		if !resident[key] {
			t.Fatalf("cold key %q vanished from the sender without being shipped", key)
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

	moved, err := e1.HashSplit(context.Background(), []string{"new1"}, []string{"e1", "new1"})
	if err != nil {
		t.Fatal(err)
	}
	if moved.Pairs == 0 || n1.Cache().Len() != moved.Pairs {
		t.Fatalf("moved %d, target holds %d", moved.Pairs, n1.Cache().Len())
	}
	if ct.imports < moved.Pairs/11 {
		t.Fatalf("imports = %d for %d moved items, want batching", ct.imports, moved.Pairs)
	}
}
