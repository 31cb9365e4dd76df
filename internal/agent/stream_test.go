package agent

// Tests for the streaming data plane's sender: the O(window × batch)
// memory bound (via the instrumented in-flight accounting), ack-based
// resume after a mid-stream failure, plan fingerprinting / epoch
// assignment, and the receiver-side ImportFrame protocol (duplicates
// acknowledged, gaps rejected).

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/fusecache"
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

// sendAll pushes every resident pair of a to target through SendData.
func sendAll(t *testing.T, a *Agent, target string) SendStats {
	t.Helper()
	takes := make(map[int]int)
	for _, classID := range a.Cache().PopulatedClasses() {
		takes[classID] = a.Cache().ClassLen(classID)
	}
	stats, err := a.SendData(context.Background(), target, takes, []string{target})
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

func (p *breakingPeer) OfferMetadata(ctx context.Context, from string, lists map[int]fusecache.List) error {
	return p.inner.OfferMetadata(ctx, from, lists)
}

func (p *breakingPeer) OpenImport(ctx context.Context, from string, epoch, fp uint64, window int) (ImportSession, error) {
	sess, err := p.inner.OpenImport(ctx, from, epoch, fp, window)
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
// must reopen the same (epoch, fingerprint) stream, learn the receiver's
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

	if _, err := sender.SendData(context.Background(), "recv", takes, []string{"recv"}); err == nil {
		t.Fatal("want the injected mid-stream failure to surface")
	}
	applied := recv.Cache().Len()
	if applied == 0 || applied >= 100 {
		t.Fatalf("receiver holds %d after the cut, want a strict partial", applied)
	}

	stats, err := sender.SendData(context.Background(), "recv", takes, []string{"recv"})
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

func TestPlanFingerprintAndEpochs(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "a", 2, clk)
	populate(t, a, 10)
	classID := a.Cache().PopulatedClasses()[0]
	metas, err := a.Cache().TopMeta(classID, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := [][]cache.ItemMeta{metas}

	fp := planFingerprint("data", "t1", plan)
	if planFingerprint("data", "t1", plan) != fp {
		t.Fatal("fingerprint is not deterministic")
	}
	if planFingerprint("split", "t1", plan) == fp {
		t.Fatal("operation kind not fingerprinted")
	}
	if planFingerprint("data", "t2", plan) == fp {
		t.Fatal("target not fingerprinted")
	}
	smaller := [][]cache.ItemMeta{metas[1:]}
	if planFingerprint("data", "t1", smaller) == fp {
		t.Fatal("selection not fingerprinted")
	}

	// Same plan → same epoch (resume); new plan → fresh epoch (reset).
	e1 := a.epochFor("t1", fp)
	if a.epochFor("t1", fp) != e1 {
		t.Fatal("retry of the same plan changed epoch")
	}
	e2 := a.epochFor("t1", planFingerprint("data", "t1", smaller))
	if e2 == e1 {
		t.Fatal("new plan reused the old epoch")
	}
	if a.epochFor("t2", fp) == e2 {
		t.Fatal("epochs must be distinct across targets")
	}
}

func TestImportFrameProtocol(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	a := newNode(t, reg, "recv", 2, clk)
	pairs := []cache.KV{{Key: "k1", Value: []byte("v")}}

	if hw := a.ImportOpen("s", 1, 42); hw != 0 {
		t.Fatalf("fresh stream high-water = %d", hw)
	}
	if _, _, err := a.ImportFrame("s", 2, 1, pairs); err == nil {
		t.Fatal("want error for wrong epoch")
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
	// Reopening the same (epoch, fp) resumes; a different fp resets.
	if hw := a.ImportOpen("s", 1, 42); hw != 1 {
		t.Fatalf("resume high-water = %d, want 1", hw)
	}
	if hw := a.ImportOpen("s", 1, 43); hw != 0 {
		t.Fatalf("new-plan high-water = %d, want reset to 0", hw)
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
			takes := make(map[int]int)
			for i, size := range []int{10, 2000} {
				for j := 0; j < 40; j++ {
					if err := sender.Cache().Set(fmt.Sprintf("c%d-%02d", i, j), make([]byte, size)); err != nil {
						t.Fatal(err)
					}
				}
				classID, _, err := sender.Cache().ClassForItem(5, size)
				if err != nil {
					t.Fatal(err)
				}
				takes[classID] = 40
			}
			sent, err := sender.SendData(context.Background(), "r1", takes, []string{"r1"})
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
