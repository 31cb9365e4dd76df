package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
)

// Differential sweep: the arena engine vs a map-of-copies oracle. The
// oracle stores plain Go copies of everything, so any arena defect —
// aliasing between chunks, a stale index entry after rehash, a value
// written past its class, an expiry misread — shows up as a divergence
// from the model. The clock is injected and only advances when the sweep
// says so, making expiry deterministic and the whole run replayable from
// its seed.

// oracleItem is the model's copy of one item.
type oracleItem struct {
	value  []byte
	flags  uint32
	expire time.Time // zero = never
}

type oracle struct {
	m   map[string]*oracleItem
	clk *clock.Fake
}

func (o *oracle) live(key string) *oracleItem {
	it, ok := o.m[key]
	if !ok {
		return nil
	}
	if !it.expire.IsZero() && !o.clk.Now().Before(it.expire) {
		delete(o.m, key) // model mirrors lazy expiry
		return nil
	}
	return it
}

func (o *oracle) set(key string, value []byte, flags uint32, expire time.Time) {
	o.m[key] = &oracleItem{
		value:  append([]byte(nil), value...),
		flags:  flags,
		expire: expire,
	}
}

// TestDifferentialSweep runs a seeded 100k-op randomized workload through
// every single-key command and checks exact agreement with the oracle at
// each step. Three generator cases drive an item's expiry across the
// chunk's expiry tail: a touch that gives a TTL-less item an expiry (half
// of them in a chunk with less than 8 bytes of slack, which moves the item
// up a class and must keep its CAS token), a set that drops a TTL, and an
// incr or append on a TTL'd item. The budget is generous, so no evictions
// occur and agreement must be perfect.
func TestDifferentialSweep(t *testing.T) {
	const (
		ops      = 100_000
		keySpace = 500
		maxVal   = 700
	)
	clk := clock.NewFake(testEpoch, 0)
	c, err := New(64*PageSize, WithClock(clk.Now), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{m: map[string]*oracleItem{}, clk: clk}
	rng := rand.New(rand.NewSource(20260807))

	key := func() string { return fmt.Sprintf("dk-%04d", rng.Intn(keySpace)) }
	val := func() []byte {
		v := make([]byte, rng.Intn(maxVal)+1)
		rng.Read(v)
		return v
	}
	someTTL := func() time.Time {
		return clk.Now().Add(time.Duration(rng.Intn(40)+1) * time.Millisecond)
	}
	ttl := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{} // never expires
		}
		return someTTL()
	}
	// set stores an item in both the cache and the oracle.
	set := func(op int, k string, v []byte, fl uint32, exp time.Time) {
		if err := c.SetBytes([]byte(k), v, fl, exp); err != nil {
			t.Fatalf("op %d: set %q: %v", op, k, err)
		}
		o.set(k, v, fl, exp)
	}

	checkGet := func(op int, k string) {
		got, flags, _, err := getWithCAS(c, k)
		want := o.live(k)
		if want == nil {
			if err == nil {
				t.Fatalf("op %d: get %q hit, oracle says dead", op, k)
			}
			return
		}
		if err != nil {
			t.Fatalf("op %d: get %q missed, oracle has it (expire %v, now %v): %v",
				op, k, want.expire, clk.Now(), err)
		}
		if !bytes.Equal(got, want.value) || flags != want.flags {
			t.Fatalf("op %d: get %q = (%d bytes, flags %d), oracle (%d bytes, flags %d)",
				op, k, len(got), flags, len(want.value), want.flags)
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(106); {
		case r < 30: // set
			k, v, fl, exp := key(), val(), rng.Uint32(), ttl()
			if err := c.SetBytes([]byte(k), v, fl, exp); err != nil {
				t.Fatalf("op %d: set %q: %v", op, k, err)
			}
			o.set(k, v, fl, exp)
		case r < 55: // get
			checkGet(op, key())
		case r < 62: // delete
			k := key()
			err := c.Delete(k)
			if want := o.live(k); want == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: delete dead %q: err = %v, want ErrNotFound", op, k, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: delete live %q: %v", op, k, err)
				}
				delete(o.m, k)
			}
		case r < 68: // touch
			k, exp := key(), ttl()
			err := c.Touch([]byte(k), exp)
			if want := o.live(k); want == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: touch dead %q: err = %v", op, k, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: touch live %q: %v", op, k, err)
				}
				want.expire = exp
			}
		case r < 73: // add
			k, v, fl, exp := key(), val(), rng.Uint32(), ttl()
			err := c.Add([]byte(k), v, fl, exp)
			if want := o.live(k); want == nil {
				if err != nil {
					t.Fatalf("op %d: add absent %q: %v", op, k, err)
				}
				o.set(k, v, fl, exp)
			} else if !errors.Is(err, ErrNotStored) {
				t.Fatalf("op %d: add present %q: err = %v, want ErrNotStored", op, k, err)
			}
		case r < 78: // replace
			k, v, fl, exp := key(), val(), rng.Uint32(), ttl()
			err := c.Replace([]byte(k), v, fl, exp)
			if want := o.live(k); want != nil {
				if err != nil {
					t.Fatalf("op %d: replace present %q: %v", op, k, err)
				}
				o.set(k, v, fl, exp)
			} else if !errors.Is(err, ErrNotStored) {
				t.Fatalf("op %d: replace absent %q: err = %v, want ErrNotStored", op, k, err)
			}
		case r < 83: // append / prepend
			k, data := key(), val()
			var err error
			if rng.Intn(2) == 0 {
				err = c.Append([]byte(k), data)
				if want := o.live(k); want != nil {
					if err != nil {
						t.Fatalf("op %d: append %q: %v", op, k, err)
					}
					want.value = append(want.value, data...)
				} else if !errors.Is(err, ErrNotStored) {
					t.Fatalf("op %d: append absent %q: err = %v", op, k, err)
				}
			} else {
				err = c.Prepend([]byte(k), data)
				if want := o.live(k); want != nil {
					if err != nil {
						t.Fatalf("op %d: prepend %q: %v", op, k, err)
					}
					want.value = append(append([]byte(nil), data...), want.value...)
				} else if !errors.Is(err, ErrNotStored) {
					t.Fatalf("op %d: prepend absent %q: err = %v", op, k, err)
				}
			}
		case r < 88: // incr / decr on dedicated counter keys
			k := fmt.Sprintf("ctr-%02d", rng.Intn(20))
			delta := rng.Uint64() % 1000
			if rng.Intn(5) == 0 { // sometimes seed/reset the counter
				seed := strconv.FormatUint(rng.Uint64()%100000, 10)
				if err := c.Set(k, []byte(seed)); err != nil {
					t.Fatalf("op %d: seed counter: %v", op, err)
				}
				o.set(k, []byte(seed), 0, time.Time{})
				continue
			}
			var got uint64
			var err error
			decr := rng.Intn(2) == 0
			if decr {
				got, err = c.Decr([]byte(k), delta)
			} else {
				got, err = c.Incr([]byte(k), delta)
			}
			want := o.live(k)
			if want == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: arith on dead %q: err = %v", op, k, err)
				}
				continue
			}
			cur, perr := strconv.ParseUint(string(want.value), 10, 64)
			if perr != nil {
				if !errors.Is(err, ErrNotNumber) {
					t.Fatalf("op %d: arith on non-number %q: err = %v", op, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: arith %q: %v", op, k, err)
			}
			var wantN uint64
			if decr {
				wantN = cur - delta
				if delta > cur {
					wantN = 0
				}
			} else {
				wantN = cur + delta // wraps like memcached
			}
			if got != wantN {
				t.Fatalf("op %d: arith %q = %d, oracle %d", op, k, got, wantN)
			}
			want.value = []byte(strconv.FormatUint(wantN, 10))
		case r < 92: // gets + cas: a fresh token must win, a stale one must lose
			k := key()
			_, _, tok, err := getWithCAS(c, k)
			if o.live(k) == nil {
				if err == nil {
					t.Fatalf("op %d: gets %q hit, oracle dead", op, k)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: gets %q: %v", op, k, err)
			}
			v, exp := val(), ttl()
			if rng.Intn(4) == 0 {
				// Invalidate the token by writing in between.
				v2 := val()
				if err := c.Set(k, v2); err != nil {
					t.Fatalf("op %d: interposing set: %v", op, err)
				}
				o.set(k, v2, 0, time.Time{})
				if err := c.CompareAndSwap([]byte(k), v, 0, exp, tok); !errors.Is(err, ErrExists) {
					t.Fatalf("op %d: stale cas %q: err = %v, want ErrExists", op, k, err)
				}
			} else {
				if err := c.CompareAndSwap([]byte(k), v, 0, exp, tok); err != nil {
					t.Fatalf("op %d: fresh cas %q: %v", op, k, err)
				}
				o.set(k, v, 0, exp)
			}
		case r < 96: // advance time (expires things lazily on both sides)
			clk.Advance(time.Duration(rng.Intn(10)+1) * time.Millisecond)
		case r < 98: // crawler sweep
			c.CrawlExpired()
			for k := range o.m {
				o.live(k) // prunes expired model entries
			}
		case r < 100: // multi-get a batch
			ks := make([][]byte, rng.Intn(8)+1)
			for i := range ks {
				ks[i] = []byte(key())
			}
			got, arena := c.GetMultiInto(ks, nil, nil)
			for i, kb := range ks {
				k := string(kb)
				want := o.live(k)
				mv, hit := got[i], got[i].Hit
				if want == nil {
					if hit {
						t.Fatalf("op %d: multiget %q hit, oracle dead", op, k)
					}
					continue
				}
				if !hit {
					t.Fatalf("op %d: multiget %q missed, oracle live", op, k)
				}
				if !bytes.Equal(mv.ValueIn(arena), want.value) || mv.Flags != want.flags {
					t.Fatalf("op %d: multiget %q value/flags diverged", op, k)
				}
			}
		case r < 102: // touch gives a TTL-less item an expiry
			k := key()
			if want := o.live(k); want == nil || !want.expire.IsZero() {
				v := val()
				if rng.Intn(2) == 0 {
					// Less than 8 bytes of slack in a small class's chunk:
					// the expiry tail moves the item up a class.
					cs := c.ChunkSizes()[rng.Intn(6)]
					v = make([]byte, cs-ItemOverhead-len(k)-rng.Intn(expiryBytes))
					rng.Read(v)
				}
				set(op, k, v, rng.Uint32(), time.Time{})
			}
			_, _, tok, err := getWithCAS(c, k)
			if err != nil {
				t.Fatalf("op %d: gets %q before touch: %v", op, k, err)
			}
			exp := someTTL()
			if err := c.Touch([]byte(k), exp); err != nil {
				t.Fatalf("op %d: touch %q adding a TTL: %v", op, k, err)
			}
			o.live(k).expire = exp
			checkGet(op, k)
			if _, _, after, _ := getWithCAS(c, k); after != tok {
				t.Fatalf("op %d: touch %q changed the CAS token %d → %d", op, k, tok, after)
			}
		case r < 104: // a set that drops a TTL
			k, v := key(), val()
			set(op, k, v, rng.Uint32(), someTTL())
			checkGet(op, k)
			if rng.Intn(2) == 0 {
				v = val() // else the same value: the class can only shrink
			}
			set(op, k, v, rng.Uint32(), time.Time{})
			checkGet(op, k)
		default: // an incr or an append on a TTL'd item keeps its expiry
			if rng.Intn(2) == 0 {
				k := fmt.Sprintf("ctr-%02d", rng.Intn(20))
				seed := rng.Uint64() % 100000
				set(op, k, []byte(strconv.FormatUint(seed, 10)), 0, someTTL())
				delta := rng.Uint64() % 1000
				got, err := c.Incr([]byte(k), delta)
				if err != nil || got != seed+delta {
					t.Fatalf("op %d: incr TTL'd %q = %d, %v; oracle %d", op, k, got, err, seed+delta)
				}
				o.live(k).value = []byte(strconv.FormatUint(seed+delta, 10))
				checkGet(op, k)
			} else {
				k, data := key(), val()
				set(op, k, val(), rng.Uint32(), someTTL())
				if err := c.Append([]byte(k), data); err != nil {
					t.Fatalf("op %d: append to TTL'd %q: %v", op, k, err)
				}
				want := o.live(k)
				want.value = append(want.value, data...)
				checkGet(op, k)
			}
		}
	}

	// Final full-state agreement: every oracle key must be a hit with the
	// exact value; cache must hold nothing more.
	liveCount := 0
	for k := range o.m {
		if o.live(k) != nil {
			liveCount++
			checkGet(ops, k)
		}
	}
	if got := c.Len(); got != liveCount {
		// The cache may still hold expired-but-unreclaimed items; crawl
		// then compare.
		c.CrawlExpired()
		if got = c.Len(); got != liveCount {
			t.Fatalf("final Len = %d, oracle has %d live", got, liveCount)
		}
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("sweep assumed no evictions, saw %d (budget too small for workload)", st.Evictions)
	}
	c.checkShardInvariants(t)
}

// TestDifferentialSweepTinyBudget repeats a shorter sweep against a
// one-page cache where evictions are constant. Exact residency can't be
// asserted — an eviction is the cache's prerogative — but safety must
// hold: every hit returns exactly what the oracle last stored, and the
// structural invariants survive the churn.
func TestDifferentialSweepTinyBudget(t *testing.T) {
	const ops = 30_000
	clk := clock.NewFake(testEpoch, 0)
	c, err := New(PageSize, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{m: map[string]*oracleItem{}, clk: clk}
	rng := rand.New(rand.NewSource(42))

	for op := 0; op < ops; op++ {
		k := fmt.Sprintf("tk-%04d", rng.Intn(8000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			// Values sized so every item lands in one slab class (304 B
			// chunks: need = 7-byte key + value + 36 overhead ∈ (240, 296],
			// plus 8 for an expiry tail ∈ (248, 304]): the single page
			// (3449 chunks) overflows and eviction churns.
			v := make([]byte, rng.Intn(56)+198)
			rng.Read(v)
			exp := time.Time{}
			if rng.Intn(4) == 0 {
				exp = clk.Now().Add(time.Duration(rng.Intn(20)+1) * time.Millisecond)
			}
			if err := c.SetBytes([]byte(k), v, uint32(op), exp); err != nil {
				if errors.Is(err, ErrOutOfMemory) {
					continue // set failed whole: a class with nothing to evict
				}
				t.Fatalf("op %d: set: %v", op, err)
			}
			o.set(k, v, uint32(op), exp)
		case 5, 6, 7, 8:
			got, flags, _, err := getWithCAS(c, k)
			want := o.live(k)
			if err == nil {
				// A hit must match the oracle exactly: stale or corrupt
				// bytes are never excusable.
				if want == nil {
					t.Fatalf("op %d: hit on %q the oracle never stored (or saw expire)", op, k)
				}
				if !bytes.Equal(got, want.value) || flags != want.flags {
					t.Fatalf("op %d: %q value/flags diverged from oracle", op, k)
				}
			} else if want != nil {
				// Miss with a live oracle entry: legal only because the
				// one-page budget forces evictions; track the model.
				delete(o.m, k)
			}
		default:
			clk.Advance(time.Duration(rng.Intn(5)+1) * time.Millisecond)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("tiny-budget sweep never evicted; the test isn't exercising eviction")
	}
	c.checkShardInvariants(t)
}

// TestImportReplayNoOp pins the migration replay rule on the arena engine:
// re-importing a pair whose LastAccess is equal to or older than the
// resident copy must change neither the value nor the MRU position
// (delivered-twice batches after a lost ACK).
func TestImportReplayNoOp(t *testing.T) {
	c, _ := newTestCache(t, 4)
	base := time.Unix(1_800_000_000, 0)
	pairs := []KV{
		{Key: "r1", Value: []byte("v1"), LastAccess: base.Add(3 * time.Second)},
		{Key: "r2", Value: []byte("v2"), LastAccess: base.Add(2 * time.Second)},
		{Key: "r3", Value: []byte("v3"), LastAccess: base.Add(1 * time.Second)},
	}
	if _, err := c.BatchImport(pairs, true); err != nil {
		t.Fatal(err)
	}
	before, err := c.DumpClass(c.mustClass(t, "r1", 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Exact replay: equal timestamps → full no-op.
	replay := []KV{
		{Key: "r2", Value: []byte("REPLAYED"), LastAccess: base.Add(2 * time.Second)},
		{Key: "r3", Value: []byte("OLDER"), LastAccess: base}, // strictly older
	}
	if _, err := c.BatchImport(replay, true); err != nil {
		t.Fatal(err)
	}
	after, err := c.DumpClass(before[0].ClassID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("replay changed item count %d → %d", len(before), len(after))
	}
	for i := range before {
		if after[i].Key != before[i].Key || !after[i].LastAccess.Equal(before[i].LastAccess) {
			t.Fatalf("replay changed dump order/timestamps at %d: %+v vs %+v", i, before[i], after[i])
		}
	}
	if v, err := c.Get("r2"); err != nil || string(v) != "v2" {
		t.Fatalf("replay overwrote value: %q, %v", v, err)
	}

	// A strictly fresher import must win.
	fresh := []KV{{Key: "r3", Value: []byte("v3-new"), LastAccess: base.Add(10 * time.Second)}}
	if _, err := c.BatchImport(fresh, true); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("r3"); err != nil || string(v) != "v3-new" {
		t.Fatalf("fresher import did not apply: %q, %v", v, err)
	}
}

// mustClass resolves the slab class a (key, valueLen) item lands in.
func (c *Cache) mustClass(t *testing.T, key string, valueLen int) int {
	t.Helper()
	id, _, err := c.classForItem(len(key), valueLen)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
