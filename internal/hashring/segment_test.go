package hashring

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
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
	if !tb.Settled() || tb.Version() != 1 {
		t.Fatalf("fresh table: settled=%v version=%d", tb.Settled(), tb.Version())
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
	moving := diffSegments(old, next, segmentBits)
	marked := make(map[int]bool, len(moving))
	for _, s := range moving {
		marked[s] = true
	}
	if len(moving) == 0 {
		t.Fatal("scale-in diff marked no segments")
	}
	if len(moving) == 1<<segmentBits {
		t.Fatal("scale-in diff marked every segment — diff is not selective")
	}
	changed := 0
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%05d", i)
		a, _ := old.Get(key)
		b, _ := next.Get(key)
		seg := int(KeyHash(key) >> (64 - segmentBits))
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
	ht, moved, err := tb.BeginHandover(retained)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Settled() || ht.Version() != 2 {
		t.Fatalf("handover table: settled=%v version=%d", ht.Settled(), ht.Version())
	}
	if moved == 0 || moved == 1<<segmentBits {
		t.Fatalf("scale-in remapped %d of %d arcs", moved, 1<<segmentBits)
	}
	if _, _, err := ht.BeginHandover(retained); err == nil {
		t.Fatal("BeginHandover on an unsettled table must fail")
	}
	if _, err := tb.Settle(); err == nil {
		t.Fatal("Settle on a settled table must fail")
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

	// Moving key: primary incoming, fallback outgoing, dual write.
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
		t.Fatalf("pre-settle Owner %q, want outgoing %q", owner, wantOld)
	}
	if !ht.AcceptsImport(wantNew, movingKey) || !ht.AcceptsImport(wantOld, movingKey) {
		t.Fatal("a moving key must be importable on both owners")
	}
	if !ht.InFlightHash(KeyHash(movingKey)) || ht.InFlightHash(KeyHash(stableKey)) {
		t.Fatal("InFlightHash must hold exactly for keys whose owner changes")
	}

	// Stable key: single plan, the owner both rings agree on.
	p, f, err = ht.ReadPlan(stableKey)
	if err != nil || f != "" {
		t.Fatalf("stable key plan (%q,%q,%v): want no fallback", p, f, err)
	}
	if want, _ := oldRing.Get(stableKey); p != want {
		t.Fatalf("stable key primary %q, want %q", p, want)
	}

	st, err := ht.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Settled() || st.Version() != 3 {
		t.Fatalf("settled: settled=%v version=%d", st.Settled(), st.Version())
	}
	if got := st.Members(); len(got) != len(retained) {
		t.Fatalf("settled members %v, want %v", got, retained)
	}
	if owner, _ := st.Owner(movingKey); owner != wantNew {
		t.Fatalf("settled Owner %q, want %q", owner, wantNew)
	}
	if p, f, _ := st.ReadPlan(movingKey); p != wantNew || f != "" {
		t.Fatalf("settled plan (%q,%q), want (%q,\"\")", p, f, wantNew)
	}
	if st.AcceptsImport(wantOld, movingKey) {
		t.Fatal("settled table must accept imports only on the owner")
	}
	if st.InFlightHash(KeyHash(movingKey)) {
		t.Fatal("settled table reports a key in flight")
	}
}

func TestRollbackRestoresOldRouting(t *testing.T) {
	tb, _ := NewTable(names(4))
	ht, _, err := tb.BeginHandover(names(4)[:3])
	if err != nil {
		t.Fatal(err)
	}
	rb := ht.Rollback()
	if !rb.Settled() || rb.Version() <= ht.Version() {
		t.Fatalf("rollback: settled=%v version=%d (was %d)", rb.Settled(), rb.Version(), ht.Version())
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
// the ring, the ownership table and byte-keyed routes place every key alike,
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

// TestReadPlanAllocs gates the client's per-op route: ReadPlan (and so
// WritePlan) allocates nothing, settled or mid-handover.
func TestReadPlanAllocs(t *testing.T) {
	tb, _ := NewTable(names(4))
	ht, _, err := tb.BeginHandover(names(4)[:3])
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16) // a mix of moving and unmoved keys
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%02d", i)
	}
	for _, table := range []*Table{tb, ht} {
		n := testing.AllocsPerRun(1000, func() {
			for _, k := range keys {
				_, _, _ = table.ReadPlan(k)
			}
		})
		if n != 0 {
			t.Fatalf("ReadPlan (settled=%v) allocates %v/op, want 0", table.Settled(), n)
		}
	}
}

// TestHandoverPlansCoverBothOutcomes walks every table the Master's
// transitions can reach — settled, mid-handover, and the two tables a
// handover can end in — for seeded (old, new) memberships of 2–4 nodes in
// both directions. From any table a key has at most two final owners: the
// one a Rollback leaves and the one a Settle leaves. Read-my-write across
// either ending needs every write to reach both, the read to prefer the
// one a Settle leaves, and imports to land on exactly those two.
func TestHandoverPlansCoverBothOutcomes(t *testing.T) {
	const keys = 10000
	pool := names(6)
	rng := rand.New(rand.NewSource(32))
	subset := func() []string {
		perm := rng.Perm(len(pool))[:2+rng.Intn(3)]
		out := make([]string, len(perm))
		for i, j := range perm {
			out[i] = pool[j]
		}
		return out
	}
	check := func(tb *Table, label string) {
		// The tables tb can end in: itself when settled, else the one
		// Settle leaves first (the read plan must prefer its owner).
		ends := []*Table{tb}
		if !tb.Settled() {
			st, err := tb.Settle()
			if err != nil {
				t.Fatalf("%s: settle: %v", label, err)
			}
			ends = []*Table{st, tb.Rollback()}
		}
		finals := func(key string) []string {
			out := make([]string, len(ends))
			for i, end := range ends {
				out[i], _ = end.Owner(key)
			}
			return out
		}
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", i)
			want := finals(key)
			primary, second, err := tb.WritePlan(key)
			if err != nil {
				t.Fatalf("%s: WritePlan(%s): %v", label, key, err)
			}
			for _, o := range want {
				if o != primary && o != second {
					t.Fatalf("%s: WritePlan(%s) = (%q,%q) misses final owner %q", label, key, primary, second, o)
				}
			}
			if p, _, _ := tb.ReadPlan(key); p != want[0] {
				t.Fatalf("%s: ReadPlan(%s) primary %q, want the settled owner %q", label, key, p, want[0])
			}
			for _, n := range pool {
				if got := tb.AcceptsImport(n, key); got != slices.Contains(want, n) {
					t.Fatalf("%s: AcceptsImport(%s, %s) = %v, final owners %v", label, n, key, got, want)
				}
			}
		}
	}
	for pair := 0; pair < 8; pair++ {
		a, b := subset(), subset()
		for _, dir := range [][2][]string{{a, b}, {b, a}} {
			label := fmt.Sprintf("%v→%v", dir[0], dir[1])
			tb, err := NewTable(dir[0])
			if err != nil {
				t.Fatal(err)
			}
			ht, _, err := tb.BeginHandover(dir[1])
			if err != nil {
				t.Fatal(err)
			}
			st, _ := ht.Settle()
			for _, reached := range []*Table{tb, ht, st, ht.Rollback()} {
				check(reached, label)
			}
		}
	}
}
