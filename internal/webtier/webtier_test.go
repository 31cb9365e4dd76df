package webtier

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/hashring"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

func newHandler(t *testing.T, nodes int, opts ...Option) (*Handler, *client.Cluster) {
	t.Helper()
	members := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		// Enough pages to cover every slab class the dataset produces.
		cc, err := cache.New(8 * cache.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.Listen("127.0.0.1:0", cc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		members[i] = s.Addr()
	}
	cl, err := client.New(members)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	dataset, err := store.NewDataset(10_000, store.WithSizeBounds(1, 128))
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.NewDB(dataset, store.LatencyModel{
		Base:     100 * time.Microsecond,
		Capacity: 100_000,
		Max:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(cl, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h, cl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig")
	}
}

func TestHandleMissThenHit(t *testing.T) {
	h, _ := newHandler(t, 2)
	keys := []string{workload.KeyName(1), workload.KeyName(2)}

	first, err := h.Handle(keys)
	if err != nil {
		t.Fatal(err)
	}
	if first.Misses != 2 || first.Hits != 0 {
		t.Fatalf("first = %+v, want all misses", first)
	}

	second, err := h.Handle(keys)
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits != 2 || second.Misses != 0 {
		t.Fatalf("second = %+v, want all hits (insert-on-miss)", second)
	}
	if second.RT <= 0 || first.RT <= 0 {
		t.Fatal("non-positive RTs")
	}

	handled, hits, misses := h.Stats()
	if handled != 2 || hits != 2 || misses != 2 {
		t.Fatalf("stats = %d/%d/%d", handled, hits, misses)
	}
}

func TestHandleEmptyKeys(t *testing.T) {
	h, _ := newHandler(t, 1)
	if _, err := h.Handle(nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestHandleUnknownKey(t *testing.T) {
	h, _ := newHandler(t, 1)
	if _, err := h.Handle([]string{"not-a-dataset-key"}); err == nil {
		t.Fatal("want error for key outside dataset")
	}
}

func TestHandleManyKeysSpreadAcrossNodes(t *testing.T) {
	h, _ := newHandler(t, 3)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = workload.KeyName(uint64(i))
	}
	if _, err := h.Handle(keys); err != nil {
		t.Fatal(err)
	}
	res, err := h.Handle(keys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 20 {
		t.Fatalf("hits = %d, want 20", res.Hits)
	}
}

func TestRTReflectsDBLatency(t *testing.T) {
	h, _ := newHandler(t, 1)
	// All misses: RT must be at least the DB base latency.
	var keys []string
	for i := 100; i < 110; i++ {
		keys = append(keys, workload.KeyName(uint64(i)))
	}
	res, err := h.Handle(keys)
	if err != nil {
		t.Fatal(err)
	}
	if res.RT < 100*time.Microsecond {
		t.Fatalf("all-miss RT %v below DB base latency", res.RT)
	}
}

// settledTable walks a fresh table over members through a handover toward
// next — BeginHandover, Settle — and returns the settled table a Master
// announces last. Its version is above a fresh client's.
func settledTable(t *testing.T, members, next []string) *hashring.Table {
	t.Helper()
	cur, err := hashring.NewTable(members)
	if err != nil {
		t.Fatal(err)
	}
	inFlight, _, err := cur.BeginHandover(next)
	if err != nil {
		t.Fatal(err)
	}
	settled, err := inFlight.Settle()
	if err != nil {
		t.Fatal(err)
	}
	return settled
}

func TestHandleSurvivesMembershipChange(t *testing.T) {
	h, cl := newHandler(t, 3)
	keys := []string{workload.KeyName(1)}
	if _, err := h.Handle(keys); err != nil {
		t.Fatal(err)
	}
	cl.OwnershipChanged(settledTable(t, cl.Members(), cl.Members()[:2]))
	if got := cl.Members(); len(got) != 2 {
		t.Fatalf("members after the settled table = %v, want 2", got)
	}
	for i := 0; i < 20; i++ {
		if _, err := h.Handle([]string{workload.KeyName(uint64(i))}); err != nil {
			t.Fatalf("request %d after membership change: %v", i, err)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	h, _ := newHandler(t, 1)
	for i := 0; i < 5; i++ {
		if _, err := h.Handle([]string{workload.KeyName(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	handled, _, misses := h.Stats()
	if handled != 5 {
		t.Fatalf("handled = %d, want 5", handled)
	}
	if misses != 5 {
		t.Fatalf("misses = %d, want 5 (distinct keys)", misses)
	}
	_ = fmt.Sprintf // keep fmt imported for future use
}
