package agent

// Tests for the streaming data plane's sender: the O(window × batch)
// memory bound (via the instrumented in-flight accounting), ack-based
// resume after a mid-stream failure, plan fingerprinting, and the
// receiver-side ImportFrame protocol (duplicates acknowledged, gaps
// rejected, streams keyed by round).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/fusecache"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

// populateSized inserts n keys with valLen-byte values and strictly
// increasing recency.
func populateSized(t *testing.T, a *Agent, n, valLen int) {
	t.Helper()
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := a.Cache().Set(fmt.Sprintf("%s-key-%05d", a.Node(), i), val); err != nil {
			t.Fatal(err)
		}
	}
}

// pickFor runs phase 1's selection on a over retained without offering
// anything: SendData ships what it picked.
func pickFor(t *testing.T, a *Agent, retained ...string) {
	t.Helper()
	if _, err := a.Pick(context.Background(), 1, retained); err != nil {
		t.Fatal(err)
	}
}

// sendAll pushes every resident pair of a to target through SendData.
func sendAll(t *testing.T, a *Agent, target string) SendStats {
	t.Helper()
	pickFor(t, a, target)
	takes := make(map[int]int)
	for _, classID := range a.Cache().PopulatedClasses() {
		takes[classID] = a.Cache().ClassLen(classID)
	}
	stats, err := a.SendData(context.Background(), 1, target, takes)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestStreamMemoryBound is the acceptance check for the bounded-memory
// claim: pushing a hot set far larger than window × batchBytes must keep
// the sender's peak in-flight payload at O(window × batch), measured by
// the push loop's own in-flight accounting (batches are charged before
// Send and released as their acks retire them from the window).
func TestStreamMemoryBound(t *testing.T) {
	const (
		batchBytes  = 4 << 10
		maxInflight = 4
		valLen      = 256
		items       = 2000
	)
	reg := NewRegistry()
	clk := newTestClock()
	recvCache, err := cache.New(4*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := New("recv", recvCache, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(recv)
	sendCache, err := cache.New(4*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := New("sender", sendCache, reg,
		WithBatchBytes(batchBytes), WithMaxInflight(maxInflight))
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(sender)
	populateSized(t, sender, items, valLen)

	stats := sendAll(t, sender, "recv")
	if stats.Pairs != items {
		t.Fatalf("moved %d pairs, want %d", stats.Pairs, items)
	}
	// The hot set dwarfs the window: the bound is only meaningful if so.
	bound := int64((maxInflight + 1) * batchBytes) // window + the batch being built
	if stats.BytesMoved < 4*bound {
		t.Fatalf("hot set %d bytes does not exceed the bound %d enough to test it", stats.BytesMoved, bound)
	}
	if stats.PeakInflightBytes == 0 {
		t.Fatal("peak in-flight accounting did not run")
	}
	if stats.PeakInflightBytes > bound {
		t.Fatalf("peak in-flight %d bytes exceeds window bound %d (window=%d × batch=%d)",
			stats.PeakInflightBytes, bound, maxInflight, batchBytes)
	}
	if recv.Cache().Len() != items {
		t.Fatalf("receiver holds %d, want %d", recv.Cache().Len(), items)
	}
}

// breakingTransport wraps the registry and fails the Nth streamed batch of
// the first session, then delivers everything.
type breakingTransport struct {
	inner     Transport
	failAtSeq uint64 // Send with this seq fails once
	used      bool
}

type breakingPeer struct {
	inner Peer
	t     *breakingTransport
}

func (bt *breakingTransport) Peer(node string) (Peer, error) {
	p, err := bt.inner.Peer(node)
	if err != nil {
		return nil, err
	}
	return &breakingPeer{inner: p, t: bt}, nil
}

func (p *breakingPeer) OfferMetadata(ctx context.Context, from string, round uint64, lists map[int]fusecache.List) error {
	return p.inner.OfferMetadata(ctx, from, round, lists)
}

func (p *breakingPeer) OpenImport(ctx context.Context, from string, round, fp uint64, window int) (ImportSession, error) {
	sess, err := p.inner.OpenImport(ctx, from, round, fp, window)
	if err != nil {
		return nil, err
	}
	return hookSession{sess, func(seq uint64) error {
		if !p.t.used && seq == p.t.failAtSeq {
			p.t.used = true
			return errors.New("injected stream failure")
		}
		return nil
	}}, nil
}

// TestStreamResumeAfterFailure: when a push dies mid-stream, the retry
// must reopen the same (round, fingerprint) stream, learn the receiver's
// high-water mark, and skip every batch already applied — counting them
// as Resumed, not re-shipping them.
func TestStreamResumeAfterFailure(t *testing.T) {
	const batchSize = 16
	reg := NewRegistry()
	clk := newTestClock()
	bt := &breakingTransport{inner: reg, failAtSeq: 4}
	recv := newNode(t, reg, "recv", 2, clk)
	sendCache, err := cache.New(2*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := New("sender", sendCache, bt, WithTransferBatchSize(batchSize))
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(sender)
	populateSized(t, sender, 100, 16)
	takes := map[int]int{sender.Cache().PopulatedClasses()[0]: 100}
	pickFor(t, sender, "recv")

	if _, err := sender.SendData(context.Background(), 1, "recv", takes); err == nil {
		t.Fatal("want the injected mid-stream failure to surface")
	}
	applied := recv.Cache().Len()
	if applied == 0 || applied >= 100 {
		t.Fatalf("receiver holds %d after the cut, want a strict partial", applied)
	}

	stats, err := sender.SendData(context.Background(), 1, "recv", takes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 100 {
		t.Fatalf("retry covered %d pairs, want 100", stats.Pairs)
	}
	if stats.Resumed != applied {
		t.Fatalf("retry resumed %d pairs, receiver had %d applied", stats.Resumed, applied)
	}
	if recv.Cache().Len() != 100 {
		t.Fatalf("receiver holds %d after resume, want 100", recv.Cache().Len())
	}
	// The cumulative counters separate shipped from resumed work.
	c := sender.Counters()
	if c.PairsResumed != int64(applied) {
		t.Fatalf("counters.PairsResumed = %d, want %d", c.PairsResumed, applied)
	}
	if c.PairsSent != 100 { // 48 before the cut + 52 after resume
		t.Fatalf("counters.PairsSent = %d, want 100", c.PairsSent)
	}
}

func TestPlanFingerprint(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "a", 2, clk)
	populate(t, a, 10)
	classID := a.Cache().PopulatedClasses()[0]
	lists, err := a.Cache().RoutePicks(classID, 1, func([]byte, uint64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	picks := lists[0]
	plan := [][]cache.Pick{picks}

	fp := planFingerprint("t1", plan)
	if planFingerprint("t1", plan) != fp {
		t.Fatal("fingerprint is not deterministic")
	}
	if planFingerprint("t2", plan) == fp {
		t.Fatal("target not fingerprinted")
	}
	smaller := [][]cache.Pick{picks[1:]}
	if planFingerprint("t1", smaller) == fp {
		t.Fatal("selection not fingerprinted")
	}
}

func TestImportFrameProtocol(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "recv", 2, clk)
	pairs := []cache.KV{{Key: "k1", Value: []byte("v")}}
	open := func(round, fp uint64) uint64 {
		t.Helper()
		hw, err := a.ImportOpen("s", round, fp)
		if err != nil {
			t.Fatalf("open round %d fp %d: %v", round, fp, err)
		}
		return hw
	}

	if hw := open(1, 42); hw != 0 {
		t.Fatalf("fresh stream high-water = %d", hw)
	}
	if _, _, err := a.ImportFrame("s", 2, 1, pairs); err == nil {
		t.Fatal("want error for another round's frame")
	}
	if _, _, err := a.ImportFrame("s", 1, 2, pairs); err == nil {
		t.Fatal("want error for a sequence gap")
	}
	hw, n, err := a.ImportFrame("s", 1, 1, pairs)
	if err != nil || hw != 1 || n != 1 {
		t.Fatalf("first frame = (%d, %d, %v)", hw, n, err)
	}
	// Duplicate delivery: acknowledged, not re-applied.
	hw, n, err = a.ImportFrame("s", 1, 1, pairs)
	if err != nil || hw != 1 || n != 0 {
		t.Fatalf("duplicate frame = (%d, %d, %v), want ack without apply", hw, n, err)
	}
	// Reopening within the round with the same fp resumes; a different fp
	// resets.
	if hw := open(1, 42); hw != 1 {
		t.Fatalf("resume high-water = %d, want 1", hw)
	}
	if hw := open(1, 43); hw != 0 {
		t.Fatalf("new-plan high-water = %d, want reset to 0", hw)
	}
	if _, _, err := a.ImportFrame("s", 1, 1, pairs); err != nil {
		t.Fatal(err)
	}
	// A newer round opens a new stream even for the same plan, and the old
	// round's stream is gone: its frames and its reopening are refused.
	if hw := open(2, 43); hw != 0 {
		t.Fatalf("next round's high-water = %d, want a new stream", hw)
	}
	if _, _, err := a.ImportFrame("s", 1, 2, pairs); err == nil {
		t.Fatal("want error for a frame of the dropped round")
	}
	if _, err := a.ImportOpen("s", 1, 43); !errors.Is(err, ErrStaleRound) || !taskgroup.IsPermanent(err) {
		t.Fatalf("reopening an older round: err = %v, want permanent ErrStaleRound", err)
	}
}

// TestSendDataCountsUnappliedPairs: a push reports the pairs it shipped
// that the receiver did not apply. A one-page receiver gives its page to
// the first class it imports, so the second class's pairs are refused and
// counted; a roomy receiver applies everything and the count is zero.
func TestSendDataCountsUnappliedPairs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pages     int
		unapplied bool
	}{{"one-page", 1, true}, {"roomy", 8, false}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			clk := newTestClock()
			sender := newNode(t, reg, "sender", 8, clk)
			newNode(t, reg, "r1", tc.pages, clk)
			for i, size := range []int{10, 2000} {
				for j := 0; j < 40; j++ {
					if err := sender.Cache().Set(fmt.Sprintf("c%d-%02d", i, j), make([]byte, size)); err != nil {
						t.Fatal(err)
					}
				}
			}
			takes := make(map[int]int)
			for _, classID := range sender.Cache().PopulatedClasses() {
				takes[classID] = 40 // one class per value size
			}
			if len(takes) != 2 {
				t.Fatalf("values landed in %d classes, want 2", len(takes))
			}
			pickFor(t, sender, "r1")
			sent, err := sender.SendData(context.Background(), 1, "r1", takes)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("sent %d pairs, %d unapplied", sent.Pairs, sent.Unapplied)
			if sent.Pairs != 80 {
				t.Fatalf("sent %d pairs, want 80", sent.Pairs)
			}
			if got := sent.Unapplied > 0; got != tc.unapplied {
				t.Errorf("unapplied = %d, want nonzero: %t", sent.Unapplied, tc.unapplied)
			}
		})
	}
}

// TestSendDataAllocsPerPair guards the phase-3 sender's cost shape: one
// push of 60 k pairs of three slab classes through the in-process Registry
// — the sender's reads and the receiver's batch import together —
// allocates per batch, not per pair: what it allocates is batch scratch
// and value buffers growing to the largest value their slot has held. The
// bound is the measured 0.0916; the walk-and-lookup path this replaced
// measured 1.154 allocations per pair here.
func TestSendDataAllocsPerPair(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	clk := newTestClock()
	sender := newShardedNode(t, reg, "s", 64, 4, clk)
	newShardedNode(t, reg, "r", 64, 4, clk)
	const items = 60_000
	sizes := []int{10, 100, 400}
	for i := 0; i < items; i++ {
		if err := sender.Cache().Set(fmt.Sprintf("key-%06d", i), make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	takes := make(map[int]int)
	for _, classID := range sender.Cache().PopulatedClasses() {
		takes[classID] = items
	}
	pickFor(t, sender, "r")
	// One push, measured as testing.AllocsPerRun measures: a second run
	// would resume the first and ship nothing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := sender.SendData(ctx, 1, "r", takes)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != items || stats.Unapplied != 0 {
		t.Fatalf("pushed %d pairs, %d unapplied; want %d, 0", stats.Pairs, stats.Unapplied, items)
	}
	perPair := float64(after.Mallocs-before.Mallocs) / items
	const bound = 0.092
	t.Logf("SendData of %d pairs: %.4f allocs/pair (bound %.3f)", items, perPair, bound)
	if perPair > bound {
		t.Fatalf("SendData allocates %.4f times per pair, want <= %.3f", perPair, bound)
	}
}

// listTop is the hottest take items of a class whose keys pass keep, as
// the MRU lists give them and independent of the page-order scanner every
// export reads through: ClassOrderByShard's runs flattened, sorted hottest
// first, equal stamps by key hash.
func listTop(t *testing.T, c *cache.Cache, classID, take int, keep func(key string) bool) []cache.ItemMeta {
	t.Helper()
	runs, err := c.ClassOrderByShard(classID)
	if err != nil {
		t.Fatal(err)
	}
	var out []cache.ItemMeta
	for _, run := range runs {
		for _, m := range run {
			if keep(m.Key) {
				out = append(out, m)
			}
		}
	}
	slices.SortFunc(out, func(a, b cache.ItemMeta) int {
		return cmp.Or(b.LastAccess.Compare(a.LastAccess), cmp.Compare(hashring.KeyHash(a.Key), hashring.KeyHash(b.Key)))
	})
	return out[:min(take, len(out))]
}

// TestSendDataShipsTopMetaSelection is phase 3's selection oracle through
// the agent: on a quiescent four-shard sender with distinct stamps and a
// hot-key owned filter, each target receives exactly the hottest take
// items of each class that are owned and routed to it — as the MRU lists
// rank them (listTop), and as TopMeta(class, take, owned ∧
// routed-to-target) selects them — with their stamps.
func TestSendDataShipsTopMetaSelection(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	clk := newTestClock()
	sender := newShardedNode(t, reg, "s", 16, 4, clk)
	retained := []string{"r1", "r2", "r3"}
	for _, name := range retained {
		newShardedNode(t, reg, name, 16, 4, clk)
	}
	sizes := []int{10, 150, 600}
	for i := 0; i < 3000; i++ {
		if err := sender.Cache().Set(fmt.Sprintf("key-%05d", i), make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			_, _ = sender.Cache().Get(fmt.Sprintf("key-%05d", i/2))
		}
	}
	sender.SetOwnedFilter(func(key string) bool { return key[len(key)-1] != '9' })
	if err := sender.SendMetadata(ctx, 1, retained); err != nil {
		t.Fatal(err)
	}
	ring, err := hashring.New(retained)
	if err != nil {
		t.Fatal(err)
	}
	for ti, target := range retained {
		filter := sender.andOwned(func(key string) bool {
			owner, err := ring.Get(key)
			return err == nil && owner == target
		})
		takes := make(map[int]int)
		want := make(map[string]int64)
		for ci, classID := range sender.Cache().PopulatedClasses() {
			takes[classID] = 50 + 200*ti + 100*ci // a prefix, different per target and class
			oracle := listTop(t, sender.Cache(), classID, takes[classID], filter)
			metas, err := sender.Cache().TopMeta(classID, takes[classID], filter)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(metas, oracle) {
				t.Fatalf("%s class %d: TopMeta selects %d items, the lists rank %d otherwise", target, classID, len(metas), len(oracle))
			}
			for _, m := range oracle {
				want[m.Key] = m.LastAccess.UnixNano()
			}
		}
		stats, err := sender.SendData(ctx, 1, target, takes)
		if err != nil {
			t.Fatal(err)
		}
		recv, _ := reg.Get(target)
		if stats.Pairs != len(want) || recv.Cache().Len() != len(want) {
			t.Fatalf("%s: shipped %d, holds %d, the lists select %d", target, stats.Pairs, recv.Cache().Len(), len(want))
		}
		for _, classID := range recv.Cache().PopulatedClasses() {
			got, err := recv.Cache().DumpClass(classID, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range got {
				if ts, ok := want[m.Key]; !ok || ts != m.LastAccess.UnixNano() {
					t.Fatalf("%s received %q@%d, the lists selected it: %v", target, m.Key, m.LastAccess.UnixNano(), ok)
				}
			}
		}
	}
}

// TestSendDataNeedsPicks: phase 3 ships only what phase 1 of its round
// picked. Without picks, with picks of an earlier round, and after Release
// dropped them, SendData fails with ErrNoPicks; it never selects by
// itself. A target phase 1 picked nothing for gets nothing.
func TestSendDataNeedsPicks(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	clk := newTestClock()
	sender := newNode(t, reg, "s", 2, clk)
	newNode(t, reg, "r1", 2, clk)
	newNode(t, reg, "r2", 2, clk)
	populate(t, sender, 50)
	takes := map[int]int{sender.Cache().PopulatedClasses()[0]: 50}
	pick := func(round uint64, retained ...string) {
		t.Helper()
		if _, err := sender.Pick(ctx, round, retained); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sender.SendData(ctx, 1, "r1", takes); !errors.Is(err, ErrNoPicks) {
		t.Fatalf("SendData before any pick: err = %v, want ErrNoPicks", err)
	}
	pick(1, "r1")
	if _, err := sender.SendData(ctx, 2, "r1", takes); !errors.Is(err, ErrNoPicks) {
		t.Fatalf("SendData of a round after its picks': err = %v, want ErrNoPicks", err)
	}
	pick(3, "r1")
	if st, err := sender.SendData(ctx, 3, "r1", takes); err != nil || st.Pairs != 50 {
		t.Fatalf("SendData after its pick = %+v, %v; want 50 pairs", st, err)
	}
	sender.SetOwnedFilter(func(string) bool { return false })
	pick(4, "r1", "r2") // nothing owned: no picks for anyone
	if st, err := sender.SendData(ctx, 4, "r1", takes); err != nil || st.Pairs != 0 {
		t.Fatalf("SendData to a target with no picks = %+v, %v; want nothing shipped", st, err)
	}
	sender.SetOwnedFilter(nil)
	pick(5, "r1")
	if _, err := sender.Release(ctx, []string{"s", "r1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.SendData(ctx, 5, "r1", takes); !errors.Is(err, ErrNoPicks) {
		t.Fatalf("SendData after Release: err = %v, want ErrNoPicks", err)
	}
}
