package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// listHarness hands out arena chunks for exercising refList in isolation:
// a small page pool plus a bump allocator over pages of one chunk size.
type listHarness struct {
	pool    pagePool
	pageIDs []uint32
	used    uint32 // chunks taken from the last page
	cpp     uint32 // chunks per page
}

func newListHarness(t *testing.T) *listHarness {
	t.Helper()
	const chunkSize = 256
	h := &listHarness{cpp: PageSize / chunkSize}
	if err := h.pool.init(8, []int{chunkSize}); err != nil {
		t.Fatal(err)
	}
	pageID, ok := h.pool.tryAcquire(0, 0)
	if !ok {
		t.Fatal("tryAcquire failed on fresh pool")
	}
	h.pageIDs = append(h.pageIDs, pageID)
	return h
}

// alloc writes key into a fresh chunk and returns its ref.
func (h *listHarness) alloc(t *testing.T, key string) itemRef {
	t.Helper()
	if h.used == h.cpp {
		pageID, ok := h.pool.tryAcquire(0, 0)
		if !ok {
			t.Fatal("harness out of pages")
		}
		h.pageIDs = append(h.pageIDs, pageID)
		h.used = 0
	}
	ref := makeRef(h.pageIDs[len(h.pageIDs)-1], h.used)
	h.used++
	writeChunk(h.pool.chunkAt(ref), []byte(key), nil, 0, 0, 0, nanoNone)
	return ref
}

func (h *listHarness) listKeys(l *refList) []string {
	var out []string
	l.each(&h.pool, func(ref itemRef, ch []byte) bool {
		out = append(out, string(chKey(ch)))
		return true
	})
	return out
}

func TestListPushFrontOrder(t *testing.T) {
	h := newListHarness(t)
	var l refList
	for _, k := range []string{"a", "b", "c"} {
		l.pushFront(&h.pool, h.alloc(t, k))
	}
	got := h.listKeys(&l)
	want := []string{"c", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if !l.validate(&h.pool) {
		t.Fatal("invariants broken")
	}
}

func TestListPushBack(t *testing.T) {
	h := newListHarness(t)
	var l refList
	for _, k := range []string{"a", "b"} {
		l.pushBack(&h.pool, h.alloc(t, k))
	}
	got := h.listKeys(&l)
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("order = %v, want [a b]", got)
	}
	if !l.validate(&h.pool) {
		t.Fatal("invariants broken")
	}
}

func TestListRemoveHeadTailMiddle(t *testing.T) {
	h := newListHarness(t)
	refs := map[string]itemRef{}
	var l refList
	for _, k := range []string{"a", "b", "c", "d"} {
		ref := h.alloc(t, k)
		refs[k] = ref
		l.pushBack(&h.pool, ref)
	}
	l.remove(&h.pool, refs["a"]) // head
	l.remove(&h.pool, refs["d"]) // tail
	l.remove(&h.pool, refs["b"]) // middle
	got := h.listKeys(&l)
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("remaining = %v, want [c]", got)
	}
	if !l.validate(&h.pool) {
		t.Fatal("invariants broken")
	}
	l.remove(&h.pool, refs["c"])
	if l.head != nilRef || l.tail != nilRef || l.size != 0 {
		t.Fatal("empty-list state wrong after removing last item")
	}
}

func TestListMoveToFront(t *testing.T) {
	h := newListHarness(t)
	refs := map[string]itemRef{}
	var l refList
	for _, k := range []string{"a", "b", "c"} {
		ref := h.alloc(t, k)
		refs[k] = ref
		l.pushBack(&h.pool, ref)
	}
	l.moveToFront(&h.pool, refs["c"])
	if got := h.listKeys(&l); got[0] != "c" {
		t.Fatalf("head = %q, want c", got[0])
	}
	l.moveToFront(&h.pool, refs["c"]) // no-op on head
	if got := h.listKeys(&l); got[0] != "c" || l.size != 3 {
		t.Fatal("moveToFront of head corrupted list")
	}
	if !l.validate(&h.pool) {
		t.Fatal("invariants broken")
	}
}

func TestListEachEarlyStop(t *testing.T) {
	h := newListHarness(t)
	var l refList
	for i := 0; i < 5; i++ {
		l.pushBack(&h.pool, h.alloc(t, fmt.Sprintf("k%d", i)))
	}
	n := 0
	l.each(&h.pool, func(itemRef, []byte) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("each visited %d items, want early stop at 2", n)
	}
}

// TestListPropertyRandomOps drives the list with random operations and
// checks structural invariants plus agreement with a reference slice model.
func TestListPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newListHarness(t)
		var l refList
		var model []string // head-first
		refs := make(map[string]itemRef)
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(4); {
			case r == 0 || len(model) == 0: // pushFront
				k := fmt.Sprintf("k%d", op)
				ref := h.alloc(t, k)
				refs[k] = ref
				l.pushFront(&h.pool, ref)
				model = append([]string{k}, model...)
			case r == 1: // remove random
				i := rng.Intn(len(model))
				k := model[i]
				l.remove(&h.pool, refs[k])
				delete(refs, k)
				model = append(model[:i:i], model[i+1:]...)
			case r == 2: // moveToFront random
				i := rng.Intn(len(model))
				k := model[i]
				l.moveToFront(&h.pool, refs[k])
				model = append(model[:i:i], model[i+1:]...)
				model = append([]string{k}, model...)
			default: // pushBack
				k := fmt.Sprintf("k%d", op)
				ref := h.alloc(t, k)
				refs[k] = ref
				l.pushBack(&h.pool, ref)
				model = append(model, k)
			}
			if !l.validate(&h.pool) {
				return false
			}
			got := h.listKeys(&l)
			if len(got) != len(model) {
				return false
			}
			for i := range got {
				if got[i] != model[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCachePropertyNeverExceedsCapacity checks the global memory invariant
// under random workloads: used chunks never exceed page capacity, and the
// index and lists always agree.
func TestCachePropertyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		c, err := New(2*PageSize, WithClock(clk.Now))
		if err != nil {
			return false
		}
		for op := 0; op < 2000; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				val := make([]byte, rng.Intn(3000)+1)
				// ErrOutOfMemory is legitimate: a class whose page demand
				// arrives after the pool is exhausted has nothing to evict.
				if err := c.Set(key, val); err != nil && !errors.Is(err, ErrOutOfMemory) {
					return false
				}
			default:
				_, _ = c.Get(key)
			}
		}
		st := c.Stats()
		if st.AssignedPages > st.MaxPages {
			return false
		}
		items := 0
		for _, sl := range st.Slabs {
			if sl.UsedChunks > sl.Pages*(PageSize/sl.ChunkSize) {
				return false
			}
			if sl.Items != sl.UsedChunks {
				return false
			}
			items += sl.Items
		}
		return items == st.Items
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCachePropertyDumpMatchesTable: every dumped key must be resident and
// dumps must cover exactly the resident set.
func TestCachePropertyDumpMatchesTable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		c, err := New(PageSize, WithClock(clk.Now))
		if err != nil {
			return false
		}
		for op := 0; op < 500; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(100))
			if rng.Intn(5) == 0 {
				_ = c.Delete(key) // ErrNotFound is fine
				continue
			}
			if err := c.Set(key, make([]byte, rng.Intn(500)+1)); err != nil && !errors.Is(err, ErrOutOfMemory) {
				return false
			}
		}
		dumped := 0
		for _, metas := range c.DumpAll(nil) {
			for _, m := range metas {
				if !c.Contains(m.Key) {
					return false
				}
				dumped++
			}
		}
		return dumped == c.Len()
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCachePropertyImportedHotterThanEvicted: after a batch import that
// causes evictions, every surviving imported item is hotter than the
// timestamps that were evicted — the paper's III-D3 guarantee, given
// FuseCache-chosen inputs (imports hotter than the local tail).
func TestCachePropertyImportedHotterThanEvicted(t *testing.T) {
	clk := newFakeClock()
	c, err := New(PageSize, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 16)
	perPage := PageSize / MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := c.Set(fmt.Sprintf("local-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldestSurvivorBefore := metas[len(metas)-1].LastAccess

	// Imports strictly hotter than everything local.
	future := time.Unix(2_000_000_000, 0)
	var pairs []KV
	for i := 0; i < 50; i++ {
		pairs = append(pairs, KV{
			Key:        fmt.Sprintf("mig-%03d", i),
			Value:      val,
			LastAccess: future.Add(time.Duration(50-i) * time.Second), // hottest first
		})
	}
	if _, err := c.BatchImport(pairs, true); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !c.Contains(p.Key) {
			t.Fatalf("imported %q missing", p.Key)
		}
		if !p.LastAccess.After(coldestSurvivorBefore) {
			t.Fatal("test setup broken: import not hotter than evicted tail")
		}
	}
	if c.Len() != perPage {
		t.Fatalf("Len = %d, want steady %d", c.Len(), perPage)
	}
}

// pushBack inserts a chunk at the LRU tail.
func (l *refList) pushBack(p *pagePool, ref itemRef) {
	ch := p.chunkAt(ref)
	setChNext(ch, nilRef)
	setChPrev(ch, l.tail)
	if l.tail != nilRef {
		setChNext(p.chunkAt(l.tail), ref)
	}
	l.tail = ref
	if l.head == nilRef {
		l.head = ref
	}
	l.size++
}

// validate checks structural invariants; used by tests and property checks.
func (l *refList) validate(p *pagePool) bool {
	if l.size == 0 {
		return l.head == nilRef && l.tail == nilRef
	}
	if l.head == nilRef || l.tail == nilRef {
		return false
	}
	if chPrev(p.chunkAt(l.head)) != nilRef || chNext(p.chunkAt(l.tail)) != nilRef {
		return false
	}
	n := 0
	prev := nilRef
	for ref := l.head; ref != nilRef; {
		ch := p.chunkAt(ref)
		if chPrev(ch) != prev {
			return false
		}
		prev = ref
		ref = chNext(ch)
		n++
		if n > l.size {
			return false
		}
	}
	return n == l.size && prev == l.tail
}
