package agentrpc

// Phase-1 offers over TCP: what they cost on the wire, that a split offer
// lands whole, and how the receiver's refusal comes back.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fusecache"
	"repro/internal/taskgroup"
)

// TestOfferWireBytesPerItem: a retiring agent's phase-1 push to a TCP peer
// costs at most four wire bytes per offered item, counting every
// client→server byte, frame headers included. Items are written up to
// 100 µs apart, so the stamp deltas are the size a loaded node's are.
func TestOfferWireBytesPerItem(t *testing.T) {
	ctx := context.Background()
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 4, clk)
	populate(t, recv.agent, 100)
	addr, sent := cutProxy(t, recv.server.Addr(), 0)
	cl := NewClient("recv", addr)
	defer cl.Close()
	sender := newStreamSender(t, "send", cl, clk)
	rng := rand.New(rand.NewSource(1))
	const items = 20_000
	for i := 0; i < items; i++ {
		if err := sender.Cache().Set(fmt.Sprintf("send-key-%06d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Duration(rng.Int63n(int64(100 * time.Microsecond))))
	}
	if n := sender.Cache().Len(); n != items {
		t.Fatalf("sender holds %d items, want %d", n, items)
	}
	if err := sender.SendMetadata(ctx, 1, []string{"recv"}); err != nil {
		t.Fatal(err)
	}
	perItem := float64(sent.Load()) / items
	t.Logf("offer of %d items: %d wire bytes, %.2f per item", items, sent.Load(), perItem)
	if perItem > 4 {
		t.Fatalf("offer costs %.2f wire bytes per item, want <= 4", perItem)
	}
	if recv.agent.PendingOffers() != 1 {
		t.Fatalf("receiver holds %d offers, want 1", recv.agent.PendingOffers())
	}
	takes, err := recv.agent.ComputeTakes(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if takes["send"][0] != items {
		t.Fatalf("takes = %v, want all %d items of class 0 (the receiver has room)", takes, items)
	}
}

// TestOfferSplitAcrossFramesOverTCP: an offer forced across many frames
// by a tiny frame cap lands as the lists a one-frame offer of the next
// round carries, so the receiver selects the same takes from it.
func TestOfferSplitAcrossFramesOverTCP(t *testing.T) {
	ctx := context.Background()
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 1, clk)
	populate(t, recv.agent, 6000) // a full page: FuseCache must choose
	cl, err := book.client("recv")
	if err != nil {
		t.Fatal(err)
	}
	base := clk.Now().UnixNano()
	lists := map[int]fusecache.List{0: make(fusecache.List, 5000)}
	for i := range lists[0] {
		// Interleaves with the receiver's own items: newer, then older.
		lists[0][i] = base - int64(i)*3000
	}
	if err := cl.offer(ctx, "send", 1, lists, 64); err != nil {
		t.Fatal(err)
	}
	split, err := recv.agent.ComputeTakes(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.OfferMetadata(ctx, "send", 2, lists); err != nil {
		t.Fatal(err)
	}
	whole, err := recv.agent.ComputeTakes(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(split, whole) {
		t.Fatalf("split offer takes %v, one-frame offer %v", split, whole)
	}
	if n := whole["send"][0]; n <= 0 || n >= len(lists[0]) {
		t.Fatalf("take %d of %d: the fixture should force a partial selection", n, len(lists[0]))
	}
}

// TestOfferRemoteRefusalIsPermanent: an offer the remote agent refuses —
// one without a sender, or one of an older round — comes back as
// ErrRemote marked permanent, and the connection stays usable for the
// next exchange.
func TestOfferRemoteRefusalIsPermanent(t *testing.T) {
	ctx := context.Background()
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	n := startNode(t, book, "n1", 1, clk)
	cl, err := book.client("n1")
	if err != nil {
		t.Fatal(err)
	}
	err = cl.OfferMetadata(ctx, "", 2, map[int]fusecache.List{0: {1}})
	if !errors.Is(err, ErrRemote) || !taskgroup.IsPermanent(err) {
		t.Fatalf("offer without sender: err = %v, want a permanent ErrRemote", err)
	}
	if err := cl.OfferMetadata(ctx, "s", 2, map[int]fusecache.List{0: {1}}); err != nil {
		t.Fatal(err)
	}
	err = cl.OfferMetadata(ctx, "late", 1, map[int]fusecache.List{0: {1}})
	if !errors.Is(err, ErrRemote) || !taskgroup.IsPermanent(err) {
		t.Fatalf("offer of an older round: err = %v, want a permanent ErrRemote", err)
	}
	if n.agent.PendingOffers() != 1 {
		t.Fatalf("receiver holds %d offers, want 1", n.agent.PendingOffers())
	}
}
