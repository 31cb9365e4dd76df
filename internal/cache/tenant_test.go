package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// newTenantCache builds a '/'-prefix cache: "name/rest" keys route to the
// registered tenant "name".
func newTenantCache(t *testing.T, pages int, opts ...Option) *Cache {
	t.Helper()
	clk := newFakeClock()
	c, err := New(int64(pages)*PageSize, append([]Option{WithClock(clk.Now), WithTenantPrefix('/')}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// statsOf returns one tenant's row of TenantStats.
func statsOf(t *testing.T, c *Cache, id uint16) TenantStats {
	t.Helper()
	for _, st := range c.TenantStats() {
		if st.ID == id {
			return st
		}
	}
	t.Fatalf("tenant %d missing from stats", id)
	return TenantStats{}
}

// --- registration and resolution ---

func TestTenantRegisterResolve(t *testing.T) {
	c := newTenantCache(t, 8)
	idA, err := c.RegisterTenant("alpha", TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := c.RegisterTenant("beta", TenantConfig{ReservedPages: 2, MaxPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if idA == 0 || idB == 0 || idA == idB {
		t.Fatalf("ids = %d, %d: want distinct non-zero", idA, idB)
	}
	// Idempotent by name.
	again, err := c.RegisterTenant("alpha", TenantConfig{})
	if err != nil || again != idA {
		t.Fatalf("re-register alpha = (%d, %v), want (%d, nil)", again, err, idA)
	}
	for _, bad := range []string{"", "has space", "ctl\x01"} {
		if _, err := c.RegisterTenant(bad, TenantConfig{}); !errors.Is(err, ErrTenantName) {
			t.Errorf("RegisterTenant(%q) err = %v, want ErrTenantName", bad, err)
		}
	}
	// Registered names and quota state are visible in TenantStats.
	if st := statsOf(t, c, idB); st.Name != "beta" || st.Reserved != 2 || st.MaxPages != 4 || st.Quota != 4 {
		t.Fatalf("beta row = %+v", st)
	}
	if st := statsOf(t, c, 0); st.Name != "" {
		t.Fatalf("default namespace named %q", st.Name)
	}
}

// TestRegisterTenantNeedsPrefix: without a key-prefix delimiter no key can
// name a tenant, so registration is refused rather than creating a tenant
// whose items nothing could reach, migrate or snapshot.
func TestRegisterTenantNeedsPrefix(t *testing.T) {
	c, _ := newTestCache(t, 8)
	if _, err := c.RegisterTenant("acme", TenantConfig{}); !errors.Is(err, ErrTenantNoPrefix) {
		t.Fatalf("RegisterTenant on a prefix-less cache: err = %v, want ErrTenantNoPrefix", err)
	}
	if n := len(c.TenantStats()); n != 1 {
		t.Fatalf("refused registration left %d tenant rows, want the default only", n)
	}
}

func TestTenantPrefixDelimRejectedInName(t *testing.T) {
	c := newTenantCache(t, 8)
	if _, err := c.RegisterTenant("a/b", TenantConfig{}); !errors.Is(err, ErrTenantName) {
		t.Fatalf("name containing the delimiter registered: %v", err)
	}
}

// --- namespace isolation ---

// TestTenantIsolationSameKey stores the same key suffix in three namespaces
// and checks that each lands in its own tenant and that reads, overwrites,
// and deletes never cross.
func TestTenantIsolationSameKey(t *testing.T) {
	c := newTenantCache(t, 8)
	a, _ := c.RegisterTenant("a", TenantConfig{})
	b, _ := c.RegisterTenant("b", TenantConfig{})

	keys := []string{"shared-key", "a/shared-key", "b/shared-key"}
	for i, k := range keys {
		if err := c.Set(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		got, err := c.Get(k)
		if err != nil || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("%s: get = (%q, %v)", k, got, err)
		}
	}
	for _, id := range []uint16{0, a, b} {
		if st := statsOf(t, c, id); st.Items != 1 {
			t.Fatalf("tenant %d holds %d items, want 1", id, st.Items)
		}
	}
	if err := c.Delete("a/shared-key"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a/shared-key"); err == nil {
		t.Fatal("deleted key still visible in its own namespace")
	}
	if _, err := c.Get("shared-key"); err != nil {
		t.Fatal("delete in tenant a removed the default-namespace copy")
	}
	if _, err := c.Get("b/shared-key"); err != nil {
		t.Fatal("delete in tenant a removed tenant b's copy")
	}
	c.checkShardInvariants(t)
}

// TestTenantPrefixRouting checks key-prefix resolution: registered prefixes
// route to their tenant, unknown prefixes and bare keys stay in the default
// namespace.
func TestTenantPrefixRouting(t *testing.T) {
	c := newTenantCache(t, 8)
	a, _ := c.RegisterTenant("acct", TenantConfig{})

	for _, k := range []string{"acct/user", "ghost/user", "user", "/user"} {
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Get(k); err != nil || string(got) != k {
			t.Fatalf("get %q = (%q, %v)", k, got, err)
		}
	}
	if st := statsOf(t, c, a); st.Items != 1 || st.Hits != 1 {
		t.Fatalf("acct row = %+v, want the one prefixed item and its hit", st)
	}
	if st := statsOf(t, c, 0); st.Items != 3 {
		t.Fatalf("default namespace holds %d items, want the 3 unprefixed", st.Items)
	}
	c.checkShardInvariants(t)
}

// --- quotas, floors, and stealing ---

// fillTenant stores count items of ~valSize bytes under "<prefix>-NNNNN"
// keys (prefix "name/x" lands them in tenant "name"), returning how many
// sets succeeded.
func fillTenant(t *testing.T, c *Cache, prefix string, count, valSize int) int {
	t.Helper()
	val := bytes.Repeat([]byte("x"), valSize)
	ok := 0
	for i := 0; i < count; i++ {
		if err := c.Set(fmt.Sprintf("%s-%05d", prefix, i), val); err == nil {
			ok++
		} else if !errors.Is(err, ErrOutOfMemory) {
			t.Fatal(err)
		}
	}
	return ok
}

// TestTenantQuotaCapsPages fills a capped tenant far past its allowance and
// checks it never holds more pages than its cap, evicting only itself.
func TestTenantQuotaCapsPages(t *testing.T) {
	c := newTenantCache(t, 8)
	a, _ := c.RegisterTenant("capped", TenantConfig{MaxPages: 2})

	// A resident bystander that must survive the capped tenant's churn.
	before := fillTenant(t, c, "bystander", 100, 900)
	// ~1000 B/item → one page holds ~1100 items; 5000 items is ~5 pages of
	// demand against a 2-page cap.
	fillTenant(t, c, "capped/hog", 5000, 900)

	hogStats, defStats := statsOf(t, c, a), statsOf(t, c, 0)
	if hogStats.Pages > 2 {
		t.Fatalf("capped tenant holds %d pages, cap 2", hogStats.Pages)
	}
	if hogStats.Evictions == 0 {
		t.Fatal("capped tenant under 5x demand never evicted")
	}
	if defStats.Evictions != 0 {
		t.Fatalf("bystander evicted %d items by another tenant's churn", defStats.Evictions)
	}
	for i := 0; i < before; i++ {
		if _, err := c.Get(fmt.Sprintf("bystander-%05d", i)); err != nil {
			t.Fatalf("bystander item %d lost", i)
		}
	}
	c.checkShardInvariants(t)
}

// TestTenantReservedFloorHolds checks a reserved floor is honored before the
// arbiter ever runs: another tenant filling the node cannot take pages the
// floor still lacks.
func TestTenantReservedFloorHolds(t *testing.T) {
	c := newTenantCache(t, 8)
	res, _ := c.RegisterTenant("reserved", TenantConfig{ReservedPages: 3})
	hog, _ := c.RegisterTenant("hog", TenantConfig{})

	// The hog floods an empty node; it may take everything except the floor.
	fillTenant(t, c, "hog/flood", 20000, 900)
	if st := statsOf(t, c, hog); st.Pages > 8-3 {
		t.Fatalf("hog holds %d pages, leaving the 3-page floor unmeetable", st.Pages)
	}
	// The reserved tenant can still claim its floor.
	fillTenant(t, c, "reserved/late", 5000, 900)
	if st := statsOf(t, c, res); st.Pages < 3 {
		t.Fatalf("reserved tenant got %d pages, floor 3", st.Pages)
	}
	c.checkShardInvariants(t)
}

// TestStealPageSemantics exercises the arbiter's primitive directly:
// allowance-only moves, physical reclaims, and the refusal conditions.
func TestStealPageSemantics(t *testing.T) {
	c := newTenantCache(t, 8)
	a, _ := c.RegisterTenant("donor", TenantConfig{ReservedPages: 1})
	b, _ := c.RegisterTenant("recv", TenantConfig{MaxPages: 3})
	stats := func(id uint16) TenantStats { return statsOf(t, c, id) }

	// Narrow both quotas to a known partition: donor 4, recv 2.
	c.SetTenantQuota(a, 4)
	c.SetTenantQuota(b, 2)

	// Donor holds nothing yet: the steal moves pure allowance, no reclaim.
	if !c.StealPage(a, b) {
		t.Fatal("allowance-only steal refused")
	}
	if st := stats(a); st.Quota != 3 || st.PagesStolen != 0 {
		t.Fatalf("donor after allowance steal: %+v", st)
	}
	if st := stats(b); st.Quota != 3 {
		t.Fatalf("recv after allowance steal: %+v", st)
	}

	// Receiver is now at its cap: further steals toward it must refuse.
	if c.StealPage(a, b) {
		t.Fatal("steal into a tenant at cap succeeded")
	}

	// Load the donor to its full quota, then steal with reclaim.
	fillTenant(t, c, "donor/load", 4000, 900)
	loaded := stats(a)
	if loaded.Pages != 3 {
		t.Fatalf("donor loaded to %d pages, want quota 3", loaded.Pages)
	}
	c.SetTenantQuota(b, 2) // reopen headroom at the receiver
	if !c.StealPage(a, b) {
		t.Fatal("reclaiming steal refused")
	}
	after := stats(a)
	if after.Pages != 2 || after.Quota != 2 || after.PagesStolen != 1 {
		t.Fatalf("donor after reclaiming steal: %+v", after)
	}
	if after.Items >= loaded.Items {
		t.Fatalf("reclaim evicted nothing: %d → %d items", loaded.Items, after.Items)
	}

	// Donor sits at its reserved floor (reserved 1 < quota 2; drain to 1).
	c.SetTenantQuota(b, 2) // receiver headroom again
	if !c.StealPage(a, b) {
		t.Fatal("steal down to the floor refused")
	}
	if c.StealPage(a, b) {
		t.Fatal("steal below the reserved floor succeeded")
	}
	if c.StealPage(a, a) {
		t.Fatal("self-steal succeeded")
	}
	c.checkShardInvariants(t)
}

// --- accounting ---

// TestTenantLazyExpiryAccounting pins satellite behavior: an item that dies
// in place (lazy expiry on the read path) is debited from its tenant's
// resident items/bytes immediately and counted as that tenant's expiration.
func TestTenantLazyExpiryAccounting(t *testing.T) {
	clk := &holdClock{t: time.Unix(1_700_000_000, 0)}
	c, err := New(8*PageSize, WithClock(clk.Now), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.RegisterTenant("ephem", TenantConfig{})

	if err := c.SetExpiringFlags("ephem/dies", bytes.Repeat([]byte("v"), 100), 0, clk.t.Add(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("ephem/lives", []byte("keep")); err != nil {
		t.Fatal(err)
	}

	st := statsOf(t, c, a)
	if st.Items != 2 || st.Bytes == 0 {
		t.Fatalf("pre-expiry stats: %+v", st)
	}
	bytesBefore := st.Bytes

	clk.advance(10 * time.Millisecond)
	if _, err := c.Get("ephem/dies"); err == nil {
		t.Fatal("expired item still served")
	}
	st = statsOf(t, c, a)
	if st.Items != 1 {
		t.Fatalf("lazy expiry left items = %d, want 1", st.Items)
	}
	if st.Bytes >= bytesBefore {
		t.Fatalf("lazy expiry did not debit bytes: %d → %d", bytesBefore, st.Bytes)
	}
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", st.Expirations)
	}
	if st.Misses != 1 {
		t.Fatalf("expired get counted as %d misses, want 1", st.Misses)
	}
	// The crawler path debits identically.
	if err := c.SetExpiringFlags("ephem/dies2", []byte("x"), 0, clk.t.Add(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Millisecond)
	c.CrawlExpired()
	st = statsOf(t, c, a)
	if st.Items != 1 || st.Expirations != 2 {
		t.Fatalf("crawler expiry accounting: %+v", st)
	}
	c.checkShardInvariants(t)
}

// --- tenants across dump, migration and snapshot ---

// TestTenantItemsMigrateAndSnapshot checks that a tenant's items leave the
// node with everyone else's: the dump and the top-N selection include them,
// a FetchTopStream → BatchImport migration lands them in the importer's
// tenant of the same name, and so does a snapshot round trip. A tenant with
// a reserved floor is the case a scale-in must not silently drop.
func TestTenantItemsMigrateAndSnapshot(t *testing.T) {
	const perTenant = 200
	build := func() (*Cache, uint16) {
		c := newTenantCache(t, 64, WithShards(2))
		id, err := c.RegisterTenant("acme", TenantConfig{ReservedPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c, id
	}
	src, acme := build()
	for i := 0; i < perTenant; i++ {
		if err := src.Set(fmt.Sprintf("acme/k-%04d", i), []byte(fmt.Sprintf("acme-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := src.Set(fmt.Sprintf("k-%04d", i), []byte(fmt.Sprintf("dflt-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, st := src.Len(), statsOf(t, src, acme); n != 2*perTenant || st.Items != perTenant {
		t.Fatalf("Len = %d with %d acme items, want %d with %d", n, st.Items, 2*perTenant, perTenant)
	}

	// Dump and top-N selection see every resident item, tenants included.
	dumped, tenantDumped := 0, 0
	var classes []int
	for class, metas := range src.DumpAll(nil) {
		dumped += len(metas)
		for _, m := range metas {
			if strings.HasPrefix(m.Key, "acme/") {
				tenantDumped++
			}
		}
		classes = append(classes, class)
	}
	if dumped != src.Len() || tenantDumped != perTenant {
		t.Fatalf("DumpAll = %d items (%d acme), want Len %d (%d acme)", dumped, tenantDumped, src.Len(), perTenant)
	}
	top := 0
	for _, class := range classes {
		metas, err := src.TopMeta(class, 2*perTenant, nil)
		if err != nil {
			t.Fatal(err)
		}
		top += len(metas)
	}
	if top != src.Len() {
		t.Fatalf("TopMeta selected %d items, want %d", top, src.Len())
	}

	check := func(how string, dst *Cache, dstAcme uint16) {
		t.Helper()
		if st := statsOf(t, dst, dstAcme); st.Items != perTenant {
			t.Fatalf("%s: importer's acme tenant holds %d items, want %d", how, st.Items, perTenant)
		}
		if st := statsOf(t, dst, 0); st.Items != perTenant {
			t.Fatalf("%s: importer's default namespace holds %d items, want %d", how, st.Items, perTenant)
		}
		for i := 0; i < perTenant; i += 37 {
			k := fmt.Sprintf("acme/k-%04d", i)
			if got, err := dst.Get(k); err != nil || string(got) != fmt.Sprintf("acme-%d", i) {
				t.Fatalf("%s: get %q = (%q, %v)", how, k, got, err)
			}
		}
		dst.checkShardInvariants(t)
	}

	// Migration: stream each class's top items into a second prefix cache.
	dst, dstAcme := build()
	for _, class := range classes {
		if _, err := src.FetchTopStream(class, 2*perTenant, nil, 64, 1<<20, func(b StreamBatch) error {
			_, err := dst.BatchImport(b.Pairs, false)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("migration", dst, dstAcme)

	// Warm restart: the snapshot carries every item, tenants included.
	var buf bytes.Buffer
	written, err := src.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != src.Len() {
		t.Fatalf("WriteSnapshot wrote %d items, want Len %d", written, src.Len())
	}
	restored, restoredAcme := build()
	if n, err := restored.RestoreSnapshot(&buf); err != nil || n != written {
		t.Fatalf("RestoreSnapshot = (%d, %v), want (%d, nil)", n, err, written)
	}
	check("snapshot", restored, restoredAcme)
}

// --- the tenant differential sweep (CI gate) ---

// TestTenantDifferential is two differentials in one seeded sweep:
//
//  1. Equivalence — a cache with named tenants registered, driven entirely
//     through the default namespace, must behave bit-identically to a plain
//     cache: same hits, same misses, same values. Unused tenants cost
//     nothing.
//  2. Isolation — three tenants interleaving the same key suffixes through
//     prefix routing, each checked against its own oracle map and its own
//     resident count. Any crosstalk (a value, expiry or item leaking across
//     namespaces) diverges from an oracle.
func TestTenantDifferential(t *testing.T) {
	// Every (tenant, class) holds at least one page once touched, so the
	// budget must cover 4 namespaces × the ~8 classes the value range
	// spans — plus headroom so the sweep stays eviction-free.
	const (
		ops      = 60_000
		keySpace = 300
		maxVal   = 300
	)
	clk := &holdClock{t: time.Unix(1_700_000_000, 0)}
	plain, err := New(96*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	tenanted, err := New(96*PageSize, WithClock(clk.Now), WithShards(2), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"red", "green", "blue"}
	ids := make([]uint16, len(names))
	oracles := make([]map[string]*oracleItem, len(names))
	for i, n := range names {
		if ids[i], err = tenanted.RegisterTenant(n, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		oracles[i] = map[string]*oracleItem{}
	}

	live := func(o map[string]*oracleItem, k string) *oracleItem {
		it, ok := o[k]
		if !ok {
			return nil
		}
		if !it.expire.IsZero() && !clk.t.Before(it.expire) {
			delete(o, k)
			return nil
		}
		return it
	}

	rng := rand.New(rand.NewSource(20260807))
	key := func() string { return fmt.Sprintf("k-%04d", rng.Intn(keySpace)) }
	val := func() []byte {
		v := make([]byte, rng.Intn(maxVal)+1)
		rng.Read(v)
		return v
	}
	ttl := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{}
		}
		return clk.t.Add(time.Duration(rng.Intn(40)+1) * time.Millisecond)
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 35: // default-namespace set, mirrored on both caches
			k, v, fl, exp := key(), val(), rng.Uint32(), ttl()
			if err := plain.SetExpiringFlags(k, v, fl, exp); err != nil {
				t.Fatalf("op %d: plain set: %v", op, err)
			}
			if err := tenanted.SetExpiringFlags(k, v, fl, exp); err != nil {
				t.Fatalf("op %d: tenanted set: %v", op, err)
			}
		case r < 55: // default-namespace get, results must match exactly
			k := key()
			pv, pf, _, perr := plain.GetWithCAS(k)
			tv, tf, _, terr := tenanted.GetWithCAS(k)
			if (perr == nil) != (terr == nil) {
				t.Fatalf("op %d: get %q diverged: plain err=%v, tenanted err=%v", op, k, perr, terr)
			}
			if perr == nil && (!bytes.Equal(pv, tv) || pf != tf) {
				t.Fatalf("op %d: get %q values diverged", op, k)
			}
		case r < 62: // default-namespace delete, mirrored
			k := key()
			perr := plain.Delete(k)
			terr := tenanted.Delete(k)
			if (perr == nil) != (terr == nil) {
				t.Fatalf("op %d: delete %q diverged: %v vs %v", op, k, perr, terr)
			}
		case r < 87: // tenant op through its key prefix, against its oracle
			ti := rng.Intn(len(names))
			k, o := names[ti]+"/"+key(), oracles[ti]
			switch rng.Intn(4) {
			case 0: // string-keyed set
				v, exp := val(), ttl()
				if err := tenanted.SetExpiringFlags(k, v, 0, exp); err != nil {
					t.Fatalf("op %d: prefixed set: %v", op, err)
				}
				o[k] = &oracleItem{value: append([]byte(nil), v...), expire: exp}
			case 1: // the wire hot path's byte-keyed set
				v, exp := val(), ttl()
				if err := tenanted.SetBytes([]byte(k), v, 0, exp); err != nil {
					t.Fatalf("op %d: prefixed SetBytes: %v", op, err)
				}
				o[k] = &oracleItem{value: append([]byte(nil), v...), expire: exp}
			case 2:
				got, err := tenanted.Get(k)
				want := live(o, k)
				if want == nil {
					if err == nil {
						t.Fatalf("op %d: tenant %s get %q hit, oracle dead", op, names[ti], k)
					}
				} else if err != nil || !bytes.Equal(got, want.value) {
					t.Fatalf("op %d: tenant %s get %q diverged (err %v)", op, names[ti], k, err)
				}
			default:
				err := tenanted.Delete(k)
				if want := live(o, k); want == nil {
					if err == nil {
						t.Fatalf("op %d: tenant %s deleted a dead key", op, names[ti])
					}
				} else if err != nil {
					t.Fatalf("op %d: tenant %s delete live: %v", op, names[ti], err)
				} else {
					delete(o, k)
				}
			}
		case r < 95: // advance time
			clk.advance(time.Duration(rng.Intn(10)+1) * time.Millisecond)
		default: // crawler on both caches; prune the oracles
			plain.CrawlExpired()
			tenanted.CrawlExpired()
			for _, o := range oracles {
				for k := range o {
					live(o, k)
				}
			}
		}
	}

	// Final agreement: the two default namespaces hold identical state.
	// (Cache.Stats aggregates every namespace, so compare the tenant-0 rows.)
	pst, tst := plain.TenantStats()[0], tenanted.TenantStats()[0]
	if pst.Hits != tst.Hits || pst.Misses != tst.Misses || pst.Evictions != tst.Evictions ||
		pst.Items != tst.Items || pst.Bytes != tst.Bytes {
		t.Fatalf("default-namespace counters diverged: plain %+v vs tenanted %+v", pst, tst)
	}
	// ...and every tenant matches its oracle exactly, value by value and in
	// resident count once the crawler has reclaimed the dead.
	tenanted.CrawlExpired()
	for i, o := range oracles {
		for k := range o {
			if want := live(o, k); want != nil {
				got, err := tenanted.Get(k)
				if err != nil || !bytes.Equal(got, want.value) {
					t.Fatalf("final: tenant %s key %q diverged (err %v)", names[i], k, err)
				}
			}
		}
		if st := statsOf(t, tenanted, ids[i]); st.Items != len(o) {
			t.Fatalf("final: tenant %s holds %d items, oracle %d", names[i], st.Items, len(o))
		}
	}
	if ev := tenanted.Stats().Evictions; ev != 0 {
		t.Fatalf("sweep assumed no evictions, saw %d", ev)
	}
	plain.checkShardInvariants(t)
	tenanted.checkShardInvariants(t)
}

// TestClassOrderByShardSeesEveryTenant: the MRU-order probe walks every
// tenant's slab of the class, one run per (shard, tenant), each in list
// order — so the chaos harness's order check covers prefixed tenants too.
func TestClassOrderByShardSeesEveryTenant(t *testing.T) {
	c := newTenantCache(t, 16, WithShards(2))
	if _, err := c.RegisterTenant("acme", TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for _, key := range []string{fmt.Sprintf("acme/k-%03d", i), fmt.Sprintf("k-%03d", i)} {
			if err := c.Set(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	classID := c.PopulatedClasses()[0]
	runs, err := c.ClassOrderByShard(classID)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, run := range runs {
		tenant := strings.HasPrefix(run[0].Key, "acme/")
		for i, it := range run {
			if strings.HasPrefix(it.Key, "acme/") != tenant {
				t.Fatalf("run mixes tenants: %s after %s", it.Key, run[0].Key)
			}
			if i > 0 && it.LastAccess.After(run[i-1].LastAccess) {
				t.Fatalf("run out of MRU order at %s", it.Key)
			}
			if tenant {
				seen++
			}
		}
	}
	if seen != 40 {
		t.Fatalf("probe saw %d of 40 acme items", seen)
	}
}
