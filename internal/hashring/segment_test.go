package hashring

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%02d", i)
	}
	return out
}

func TestNewTableSettled(t *testing.T) {
	tb, err := NewTable(names(4))
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Settled() || tb.Version() != 1 || tb.Segments() != 1<<DefaultSegmentBits {
		t.Fatalf("fresh table: settled=%v version=%d segments=%d", tb.Settled(), tb.Version(), tb.Segments())
	}
	for s := 0; s < tb.Segments(); s++ {
		if tb.Epoch(s) != 1 || tb.Phase(s) != SegSettled {
			t.Fatalf("segment %d: epoch=%d phase=%v", s, tb.Epoch(s), tb.Phase(s))
		}
	}
	key := "some-key"
	owner, err := tb.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := New(names(4))
	want, _ := ring.Get(key)
	if owner != want {
		t.Fatalf("settled owner %q, ring says %q", owner, want)
	}
	p, f, err := tb.ReadPlan(key)
	if err != nil || p != want || f != "" {
		t.Fatalf("settled plan (%q,%q,%v), want (%q,\"\")", p, f, err, want)
	}
}

// TestDiffSegmentsExact cross-checks the arc-walk diff against brute
// force: a segment is marked iff some probed key in it changes owner,
// and — the load-bearing direction — every key whose owner changes lies
// in a marked segment.
func TestDiffSegmentsExact(t *testing.T) {
	old, err := New(names(4))
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(names(4)[:3]) // scale-in: drop n03
	if err != nil {
		t.Fatal(err)
	}
	moving := diffSegments(old, next, DefaultSegmentBits)
	marked := make(map[int]bool, len(moving))
	for _, s := range moving {
		marked[s] = true
	}
	if len(moving) == 0 {
		t.Fatal("scale-in diff marked no segments")
	}
	if len(moving) == 1<<DefaultSegmentBits {
		t.Fatal("scale-in diff marked every segment — diff is not selective")
	}
	changed := 0
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%05d", i)
		a, _ := old.Get(key)
		b, _ := next.Get(key)
		seg := int(KeyHash(key) >> (64 - DefaultSegmentBits))
		if a != b {
			changed++
			if !marked[seg] {
				t.Fatalf("key %s changes owner %s→%s but segment %d unmarked", key, a, b, seg)
			}
		}
	}
	if changed == 0 {
		t.Fatal("probe set found no remapped keys; test is vacuous")
	}
}

func TestHandoverLifecycle(t *testing.T) {
	tb, err := NewTable(names(4))
	if err != nil {
		t.Fatal(err)
	}
	retained := names(4)[:3]
	ht, moving, err := tb.BeginHandover(retained)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Settled() || ht.Version() != 2 {
		t.Fatalf("handover table: settled=%v version=%d", ht.Settled(), ht.Version())
	}
	if _, _, err := ht.BeginHandover(retained); err == nil {
		t.Fatal("BeginHandover on an unsettled table must fail")
	}

	oldRing, _ := New(names(4))
	nextRing, _ := New(retained)
	// Find a remapped key and a stable key to probe plans with.
	var movingKey, stableKey string
	for i := 0; i < 20000 && (movingKey == "" || stableKey == ""); i++ {
		key := fmt.Sprintf("k%05d", i)
		a, _ := oldRing.Get(key)
		b, _ := nextRing.Get(key)
		if a != b && movingKey == "" {
			movingKey = key
		}
		if a == b && stableKey == "" {
			stableKey = key
		}
	}
	if movingKey == "" || stableKey == "" {
		t.Fatal("could not find probe keys")
	}

	// In-flight moving key: primary incoming, fallback outgoing, dual write.
	p, f, err := ht.ReadPlan(movingKey)
	if err != nil {
		t.Fatal(err)
	}
	wantNew, _ := nextRing.Get(movingKey)
	wantOld, _ := oldRing.Get(movingKey)
	if p != wantNew || f != wantOld {
		t.Fatalf("in-flight plan (%q,%q), want (%q,%q)", p, f, wantNew, wantOld)
	}
	if owner, _ := ht.Owner(movingKey); owner != wantOld {
		t.Fatalf("pre-commit Owner %q, want outgoing %q", owner, wantOld)
	}
	if !ht.AcceptsImport(wantNew, movingKey) || !ht.AcceptsImport(wantOld, movingKey) {
		t.Fatal("in-flight segment must accept imports on both owners")
	}

	// Stable key: single plan even if its segment is in-flight.
	p, f, err = ht.ReadPlan(stableKey)
	if err != nil || f != "" {
		t.Fatalf("stable key plan (%q,%q,%v): want no fallback", p, f, err)
	}
	if want, _ := oldRing.Get(stableKey); p != want {
		t.Fatalf("stable key primary %q, want %q", p, want)
	}

	// Commit the moving key's segment: epoch bumps, next ring answers alone.
	seg := ht.SegmentOf(movingKey)
	ct, err := ht.CommitSegments([]int{seg})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Version() != 3 || ct.Epoch(seg) != 2 || ct.Phase(seg) != SegCommitted {
		t.Fatalf("committed: version=%d epoch=%d phase=%v", ct.Version(), ct.Epoch(seg), ct.Phase(seg))
	}
	if owner, _ := ct.Owner(movingKey); owner != wantNew {
		t.Fatalf("post-commit Owner %q, want %q", owner, wantNew)
	}
	if p, f, _ := ct.ReadPlan(movingKey); p != wantNew || f != "" {
		t.Fatalf("post-commit plan (%q,%q), want (%q,\"\")", p, f, wantNew)
	}
	if ct.AcceptsImport(wantOld, movingKey) {
		t.Fatal("committed segment must reject imports on the outgoing owner")
	}
	if _, err := ct.CommitSegments([]int{seg}); err == nil {
		t.Fatal("double commit of a segment must fail")
	}

	// Settle requires every in-flight segment committed first.
	if _, err := ct.Settle(); err == nil && len(moving) > 1 {
		t.Fatal("settle with in-flight segments must fail")
	}
	rest := make([]int, 0, len(moving))
	for _, s := range moving {
		if s != seg {
			rest = append(rest, s)
		}
	}
	ct2, err := ct.CommitSegments(rest)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ct2.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Settled() {
		t.Fatal("settled table reports unsettled")
	}
	if got := st.Members(); len(got) != len(retained) {
		t.Fatalf("settled members %v, want %v", got, retained)
	}
	if owner, _ := st.Owner(movingKey); owner != wantNew {
		t.Fatalf("settled Owner %q, want %q", owner, wantNew)
	}
	if st.Epoch(seg) != 2 {
		t.Fatalf("settle reset epoch of %d to %d", seg, st.Epoch(seg))
	}
	if st.AcceptsImport(wantOld, movingKey) {
		t.Fatal("settled table must accept imports only on the owner")
	}
}

func TestRollbackRestoresOldRouting(t *testing.T) {
	tb, _ := NewTable(names(4))
	ht, moving, err := tb.BeginHandover(names(4)[:3])
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ht.CommitSegments(moving[:1])
	if err != nil {
		t.Fatal(err)
	}
	rb := ct.Rollback()
	if !rb.Settled() || rb.Version() <= ct.Version() {
		t.Fatalf("rollback: settled=%v version=%d (was %d)", rb.Settled(), rb.Version(), ct.Version())
	}
	oldRing, _ := New(names(4))
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%05d", i)
		want, _ := oldRing.Get(key)
		got, err := rb.Owner(key)
		if err != nil || got != want {
			t.Fatalf("rollback owner of %s = %q, want %q", key, got, want)
		}
		if p, f, _ := rb.ReadPlan(key); p != want || f != "" {
			t.Fatalf("rollback plan of %s = (%q,%q)", key, p, f)
		}
	}
	if rb.Epoch(moving[0]) != 2 {
		t.Fatalf("rollback lost committed segment's epoch bump: %d", rb.Epoch(moving[0]))
	}
}

func TestMembersUnionMidHandover(t *testing.T) {
	tb, _ := NewTable([]string{"a", "b", "c"})
	ht, _, err := tb.BeginHandover([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	got := ht.Members()
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("union members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union members %v, want %v", got, want)
		}
	}
}

// TestKeyHashBytesMatchesKeyHash pins the one FNV-1a loop: on a seeded
// set of keys (empty, ASCII, arbitrary bytes, long) the string and byte
// forms agree with each other and with the standard library's FNV-1a, so
// the ring, the segment table and byte-keyed routes place every key alike,
// and a ring routes a byte key by hash exactly as it routes the string.
func TestKeyHashBytesMatchesKeyHash(t *testing.T) {
	ref := func(parts ...[]byte) uint64 {
		h := fnv.New64a()
		for _, p := range parts {
			_, _ = h.Write(p)
		}
		return fmix64(h.Sum64())
	}
	ring, err := New(names(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys := [][]byte{nil, []byte("k"), []byte("key-1-1")}
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(300))
		rng.Read(key)
		keys = append(keys, key, []byte(fmt.Sprintf("key-%d-%d", i, i*i)))
	}
	for _, key := range keys {
		want := ref(key)
		if got := KeyHash(string(key)); got != want {
			t.Fatalf("KeyHash(%q) = %x, want %x", key, got, want)
		}
		if got := KeyHashBytes(key); got != want {
			t.Fatalf("KeyHashBytes(%q) = %x, want %x", key, got, want)
		}
		byString, _ := ring.Get(string(key))
		byHash, _ := ring.GetHash(KeyHashBytes(key))
		if byString != byHash {
			t.Fatalf("key %q: Get %q, GetHash %q", key, byString, byHash)
		}
	}
	for i := 0; i < 200; i++ {
		if got, want := pointHash("node-3", i), ref([]byte("node-3"), []byte{'#'}, []byte(strconv.Itoa(i))); got != want {
			t.Fatalf("pointHash(node-3, %d) = %x, want %x", i, got, want)
		}
	}
}

func TestInFlightHashAllocs(t *testing.T) {
	tb, _ := NewTable(names(4))
	ht, _, err := tb.BeginHandover(names(4)[:3])
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("some-key")
	n := testing.AllocsPerRun(1000, func() {
		ht.InFlightHash(KeyHashBytes(key))
	})
	if n != 0 {
		t.Fatalf("InFlightHash allocates %v/op, want 0", n)
	}
}
