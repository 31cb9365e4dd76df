package agent

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/fusecache"
)

// flakyTransport fails a configurable number of Peer resolutions or
// deliveries before recovering, to exercise migration error paths.
type flakyTransport struct {
	inner      Transport
	failPeers  int // Peer() calls to fail
	failOffers int // OfferMetadata deliveries to fail
	failImport int // import batch deliveries (session Sends) to fail
}

type flakyPeer struct {
	inner Peer
	t     *flakyTransport
}

var errInjected = errors.New("injected failure")

func (f *flakyTransport) Peer(node string) (Peer, error) {
	if f.failPeers > 0 {
		f.failPeers--
		return nil, fmt.Errorf("peer %s: %w", node, errInjected)
	}
	p, err := f.inner.Peer(node)
	if err != nil {
		return nil, err
	}
	return &flakyPeer{inner: p, t: f}, nil
}

func (p *flakyPeer) OfferMetadata(ctx context.Context, from string, lists map[int]fusecache.List) error {
	if p.t.failOffers > 0 {
		p.t.failOffers--
		return errInjected
	}
	return p.inner.OfferMetadata(ctx, from, lists)
}

func (p *flakyPeer) OpenImport(ctx context.Context, from string, epoch, fp uint64, window int) (ImportSession, error) {
	sess, err := p.inner.OpenImport(ctx, from, epoch, fp, window)
	if err != nil {
		return nil, err
	}
	return hookSession{sess, func(uint64) error {
		if p.t.failImport > 0 {
			p.t.failImport--
			return errInjected
		}
		return nil
	}}, nil
}

// hookSession runs before ahead of every Send of the wrapped session — the
// seam the package's peer doubles use to count or fail batch deliveries.
type hookSession struct {
	ImportSession
	before func(seq uint64) error
}

func (s hookSession) Send(ctx context.Context, seq uint64, pairs []cache.KV) error {
	if err := s.before(seq); err != nil {
		return err
	}
	return s.ImportSession.Send(ctx, seq, pairs)
}

// newFlakyNode builds an agent whose outbound transport is flaky while it
// remains reachable by peers through the registry.
func newFlakyNode(t *testing.T, reg *Registry, name string, clk *testClock, ft *flakyTransport) *Agent {
	t.Helper()
	c, err := cache.New(2*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(name, c, ft)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(a)
	return a
}

func TestSendMetadataSurfacesPeerFailure(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ft := &flakyTransport{inner: reg, failPeers: 1}
	retiring := newFlakyNode(t, reg, "retiring", clk, ft)
	newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// After recovery the same call succeeds — no corrupted state.
	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
}

func TestSendMetadataSurfacesDeliveryFailure(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ft := &flakyTransport{inner: reg, failOffers: 1}
	retiring := newFlakyNode(t, reg, "retiring", clk, ft)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if r1.PendingOffers() != 0 {
		t.Fatal("failed delivery left a partial offer")
	}
	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if r1.PendingOffers() != 1 {
		t.Fatal("retry did not deliver")
	}
}

func TestSendDataSurfacesImportFailure(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ft := &flakyTransport{inner: reg, failImport: 1}
	retiring := newFlakyNode(t, reg, "retiring", clk, ft)
	r1 := newNode(t, reg, "r1", 1, clk)
	populate(t, retiring, 50)

	if err := retiring.SendMetadata(context.Background(), []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	takes, err := r1.ComputeTakes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retiring.SendData(context.Background(), "r1", takes["retiring"], []string{"r1"}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// The source still holds its data: a failed phase 3 loses nothing.
	if retiring.Cache().Len() != 50 {
		t.Fatalf("source lost data on failed send: %d", retiring.Cache().Len())
	}
	// Retry works (idempotent import).
	sent, err := retiring.SendData(context.Background(), "r1", takes["retiring"], []string{"r1"})
	if err != nil || sent.Pairs != 50 {
		t.Fatalf("retry = %d, %v", sent.Pairs, err)
	}
	if r1.Cache().Len() != 100 { // 50 local-capacity spare + 50 imported
		// r1 was empty, so it now holds exactly the 50 imports.
		if r1.Cache().Len() != 50 {
			t.Fatalf("receiver holds %d after retry", r1.Cache().Len())
		}
	}
}

// TestHashSplitSurfacesFailureAndStaysConsistent: a failed scale-out push
// drops nothing on the sender, a retry completes it, and only the release
// that follows the settled table removes the moved keys.
func TestHashSplitSurfacesFailureAndStaysConsistent(t *testing.T) {
	reg := NewRegistry()
	clk := newTestClock()
	ft := &flakyTransport{inner: reg, failImport: 1}
	e1 := newFlakyNode(t, reg, "e1", clk, ft)
	n1 := newNode(t, reg, "new1", 1, clk)
	populate(t, e1, 200)
	ctx := context.Background()
	full := []string{"e1", "new1"}

	before := e1.Cache().Len()
	if err := e1.SendMetadata(ctx, full); err != nil {
		t.Fatal(err)
	}
	takes, err := n1.ComputeTakes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.SendData(ctx, "new1", takes["e1"], full); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if e1.Cache().Len() != before {
		t.Fatalf("source dropped items on a failed push: %d → %d", before, e1.Cache().Len())
	}
	// Retry completes the move; the sender still holds everything.
	moved, err := e1.SendData(ctx, "new1", takes["e1"], full)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Pairs == 0 || n1.Cache().Len() != moved.Pairs || e1.Cache().Len() != before {
		t.Fatalf("retry moved %d, target holds %d, source %d of %d", moved.Pairs, n1.Cache().Len(), e1.Cache().Len(), before)
	}
	released, err := e1.Release(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if released != moved.Pairs || e1.Cache().Len() != before-moved.Pairs {
		t.Fatalf("released %d, source holds %d; want %d and %d", released, e1.Cache().Len(), moved.Pairs, before-moved.Pairs)
	}
}
