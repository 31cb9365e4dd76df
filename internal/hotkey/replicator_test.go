package hotkey

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
)

// trio is a three-node in-process fixture: caches, replicators, and a
// LocalPusher connecting them.
type trio struct {
	names  []string
	table  *hashring.Table
	caches map[string]*cache.Cache
	reps   map[string]*Replicator
}

func newTrio(t *testing.T, cfg Config) *trio {
	t.Helper()
	names := []string{"a", "b", "c"}
	pusher := NewLocalPusher()
	tr := &trio{
		names:  names,
		caches: make(map[string]*cache.Cache),
		reps:   make(map[string]*Replicator),
	}
	for _, name := range names {
		cc, err := cache.New(8 * cache.PageSize)
		if err != nil {
			t.Fatalf("cache.New: %v", err)
		}
		rep := New(name, cc, pusher, cfg)
		pusher.Register(name, LocalNode{Store: cc, Rep: rep})
		tr.caches[name] = cc
		tr.reps[name] = rep
	}
	table, err := hashring.NewTable(names)
	if err != nil {
		t.Fatalf("hashring.NewTable: %v", err)
	}
	tr.table = table
	for _, rep := range tr.reps {
		rep.OwnershipChanged(table)
	}
	return tr
}

// handover walks cur through a handover toward members the way the Master
// announces it, returning the in-flight table and the settled successor.
func handover(t *testing.T, cur *hashring.Table, members []string) (inFlight, settled *hashring.Table) {
	t.Helper()
	inFlight, _, err := cur.BeginHandover(members)
	if err != nil {
		t.Fatalf("BeginHandover: %v", err)
	}
	settled, err = inFlight.Settle()
	if err != nil {
		t.Fatalf("Settle: %v", err)
	}
	return inFlight, settled
}

// settle returns the settled table that moves the trio to members.
func (tr *trio) settle(t *testing.T, members []string) *hashring.Table {
	t.Helper()
	_, settled := handover(t, tr.table, members)
	return settled
}

// keyOwnedBy finds a key homed on the wanted node under the trio's ring.
func (tr *trio) keyOwnedBy(t *testing.T, want string) string {
	t.Helper()
	ring, err := hashring.New(tr.names)
	if err != nil {
		t.Fatalf("hashring.New: %v", err)
	}
	for i := 0; i < 1000; i++ {
		key := "key-" + string(rune('a'+i%26)) + "-" + time.Unix(int64(i), 0).UTC().Format("150405")
		if owner, err := ring.Get(key); err == nil && owner == want {
			return key
		}
	}
	t.Fatalf("no key owned by %s found", want)
	return ""
}

func (tr *trio) replicaOf(t *testing.T, key string) string {
	t.Helper()
	ring, err := hashring.New(tr.names)
	if err != nil {
		t.Fatalf("hashring.New: %v", err)
	}
	nodes, err := ring.GetN(key, 2)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("GetN(%q, 2) = %v, %v", key, nodes, err)
	}
	return nodes[1]
}

func testConfig() Config {
	return Config{
		Capacity:       64,
		SampleRate:     1,
		TopK:           4,
		ShareThreshold: 0.2,
		Replicas:       2,
		MinSamples:     10,
		CooldownTicks:  2,
	}
}

func TestTickPromotesAndPushes(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	replica := tr.replicaOf(t, key)
	repA := tr.reps["a"]

	if err := tr.caches["a"].SetBytes([]byte(key), []byte("v1"), 7, time.Time{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	for i := 0; i < 50; i++ {
		repA.ObserveGet([]byte(key))
	}
	repA.Tick()

	if got := repA.Promoted(); len(got) != 1 || got[0] != key {
		t.Fatalf("promoted = %v, want [%s]", got, key)
	}
	v, flags, _, ok := tr.caches[replica].PeekFull(key)
	if !ok || string(v) != "v1" || flags != 7 {
		t.Fatalf("replica copy on %s = %q/%d/%v, want v1/7/true", replica, v, flags, ok)
	}
	if tr.reps[replica].IsOwned(key) {
		t.Fatalf("replica %s did not mark %q held: replica-held keys are non-owned for migration", replica, key)
	}
	version, entries := repA.Table()
	if version == 0 || len(entries) != 1 || entries[0].Key != key {
		t.Fatalf("table = v%d %+v", version, entries)
	}
	if entries[0].Nodes[0] != "a" || entries[0].Nodes[1] != replica {
		t.Fatalf("serving set = %v, want [a %s]", entries[0].Nodes, replica)
	}
	if cs := repA.Snapshot(); cs.Promotions != 1 || cs.ReplicaPushes == 0 {
		t.Fatalf("counters = %+v", cs)
	}
}

func TestWriteDeleteFanOut(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	replica := tr.replicaOf(t, key)
	repA := tr.reps["a"]

	if err := repA.Promote(key); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := tr.caches["a"].SetBytes([]byte(key), []byte("v2"), 3, time.Time{}); err != nil {
		t.Fatalf("home write: %v", err)
	}
	repA.AfterWrite([]byte(key))
	if v, flags, _, ok := tr.caches[replica].PeekFull(key); !ok || string(v) != "v2" || flags != 3 {
		t.Fatalf("replica copy after write = %q/%d/%v, want v2/3", v, flags, ok)
	}

	if err := tr.caches["a"].Delete(key); err != nil {
		t.Fatalf("home delete: %v", err)
	}
	repA.AfterWrite([]byte(key))
	if _, _, _, ok := tr.caches[replica].PeekFull(key); ok {
		t.Fatalf("replica copy survived delete fan-out")
	}
	if !tr.reps[replica].IsOwned(key) {
		t.Fatalf("replica mark survived delete fan-out")
	}
}

func TestStaleDeleteDoesNotDropOwnedCopy(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	replica := tr.replicaOf(t, key)

	// The replica holds the key but its mark is gone — as after a
	// migration made this node the owner. A stale hkdel must be a no-op.
	if err := tr.caches[replica].SetBytes([]byte(key), []byte("owned"), 0, time.Time{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if tr.reps[replica].DropReplica([]byte(key)) {
		t.Fatalf("DropReplica reported a mark that was never set")
	}
	pusher := NewLocalPusher()
	pusher.Register(replica, LocalNode{Store: tr.caches[replica], Rep: tr.reps[replica]})
	if err := pusher.Push(replica, PushOp{Op: OpDel, Key: key}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if _, _, _, ok := tr.caches[replica].PeekFull(key); !ok {
		t.Fatalf("stale delete destroyed an owned copy")
	}
}

func TestCooldownDemotion(t *testing.T) {
	cfg := testConfig()
	tr := newTrio(t, cfg)
	key := tr.keyOwnedBy(t, "a")
	replica := tr.replicaOf(t, key)
	repA := tr.reps["a"]

	if err := tr.caches["a"].SetBytes([]byte(key), []byte("v"), 0, time.Time{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	for i := 0; i < 50; i++ {
		repA.ObserveGet([]byte(key))
	}
	repA.Tick()
	if len(repA.Promoted()) != 1 {
		t.Fatalf("not promoted")
	}
	// Traffic stops: the decayed window cools over a few ticks, then
	// CooldownTicks cold evaluations demote the key and invalidate the
	// replica copy.
	demotedAfter := -1
	for i := 1; i <= 10; i++ {
		repA.Tick()
		if len(repA.Promoted()) == 0 {
			demotedAfter = i
			break
		}
	}
	if demotedAfter < 0 {
		t.Fatalf("still promoted after 10 idle ticks")
	}
	if demotedAfter < cfg.CooldownTicks {
		t.Fatalf("demoted after %d ticks, before the %d-tick cooldown", demotedAfter, cfg.CooldownTicks)
	}
	if _, _, _, ok := tr.caches[replica].PeekFull(key); ok {
		t.Fatalf("replica copy survived demotion")
	}
	if cs := repA.Snapshot(); cs.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", cs.Demotions)
	}
}

func TestMembershipFlipIsStateOnly(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	repA := tr.reps["a"]

	if err := tr.caches["a"].SetBytes([]byte(key), []byte("v"), 0, time.Time{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if err := repA.Promote(key); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	before := repA.Snapshot()

	// A flip that removes this node's ownership must drop the promotion
	// without pushing anything (pushes during a flip would race the
	// migration data plane).
	repA.OwnershipChanged(tr.settle(t, []string{"b", "c"}))
	after := repA.Snapshot()
	if after.ReplicaPushes != before.ReplicaPushes {
		t.Fatalf("flip pushed data: %d → %d", before.ReplicaPushes, after.ReplicaPushes)
	}
	if after.FlipDrops != 1 || after.Promoted != 0 {
		t.Fatalf("flip state = %+v, want promotion dropped", after)
	}
	if after.TableVersion == before.TableVersion {
		t.Fatalf("flip did not bump the table version")
	}
}

func TestFlipRecomputesReplicasAndResyncsOnTick(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	oldReplica := tr.replicaOf(t, key)
	repA := tr.reps["a"]

	if err := tr.caches["a"].SetBytes([]byte(key), []byte("v"), 0, time.Time{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if err := repA.Promote(key); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// Remove the old replica from the membership: the promotion survives
	// (this node still homes the key), the serving set is recomputed, and
	// the value reaches the new replica on the next Tick, not during the
	// flip itself.
	var survivors []string
	for _, n := range tr.names {
		if n != oldReplica {
			survivors = append(survivors, n)
		}
	}
	repA.OwnershipChanged(tr.settle(t, survivors))
	if got := repA.Promoted(); len(got) != 1 || got[0] != key {
		t.Fatalf("promotion dropped by flip: %v", got)
	}
	newReplica := survivors[0]
	if newReplica == "a" {
		newReplica = survivors[1]
	}
	if _, _, _, ok := tr.caches[newReplica].PeekFull(key); ok {
		t.Fatalf("flip pushed the value before Tick")
	}
	repA.Tick()
	if _, _, _, ok := tr.caches[newReplica].PeekFull(key); !ok {
		t.Fatalf("post-flip Tick did not resync the new replica %s", newReplica)
	}
}

func TestFlipUnmarksNowOwnedReplicas(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	replica := tr.replicaOf(t, key)
	repR := tr.reps[replica]

	repR.MarkReplica([]byte(key))
	if repR.IsOwned(key) {
		t.Fatalf("marked key reported owned")
	}
	// Membership without the old home: if the key now hashes to the
	// replica, the mark must clear so migration ships the copy.
	var survivors []string
	for _, n := range tr.names {
		if n != "a" {
			survivors = append(survivors, n)
		}
	}
	ring, err := hashring.New(survivors)
	if err != nil {
		t.Fatalf("hashring.New: %v", err)
	}
	owner, err := ring.Get(key)
	if err != nil {
		t.Fatalf("ring.Get: %v", err)
	}
	repR.OwnershipChanged(tr.settle(t, survivors))
	if owner == replica && !repR.IsOwned(key) {
		t.Fatalf("flip left the now-owned key marked as replica")
	}
	if owner != replica && repR.IsOwned(key) {
		t.Fatalf("flip cleared a mark for a key still homed elsewhere")
	}
}

// TestOwnershipChangedActsOnlyOnNewerSettledTables: an in-flight table
// and a table no newer than the last settled one change nothing; a newer
// settled table recomputes the serving set from its members, and one
// that moves the key away drops the promotion.
func TestOwnershipChangedActsOnlyOnNewerSettledTables(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	oldReplica := tr.replicaOf(t, key)
	repA := tr.reps["a"]
	if err := repA.Promote(key); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	var survivors []string // drop the replica; a keeps homing the key
	for _, n := range tr.names {
		if n != oldReplica {
			survivors = append(survivors, n)
		}
	}
	inFlight, settled := handover(t, tr.table, survivors)

	unchanged := func(stage string) {
		t.Helper()
		before := repA.Snapshot()
		_, beforeEntries := repA.Table()
		for _, ignored := range []*hashring.Table{inFlight, tr.table} {
			repA.OwnershipChanged(ignored)
			if got := repA.Snapshot(); got != before {
				t.Fatalf("%s: v%d table changed counters: %+v → %+v", stage, ignored.Version(), before, got)
			}
			if _, entries := repA.Table(); !reflect.DeepEqual(entries, beforeEntries) {
				t.Fatalf("%s: v%d table changed the hot table: %+v → %+v", stage, ignored.Version(), beforeEntries, entries)
			}
		}
	}
	unchanged("before settle")

	repA.OwnershipChanged(settled)
	ring, err := hashring.New(survivors)
	if err != nil {
		t.Fatalf("hashring.New: %v", err)
	}
	want, err := ring.GetN(key, 2)
	if err != nil {
		t.Fatalf("GetN: %v", err)
	}
	if _, entries := repA.Table(); len(entries) != 1 || !reflect.DeepEqual(entries[0].Nodes, want) {
		t.Fatalf("serving set after settle = %+v, want %v", entries, want)
	}
	unchanged("after settle")

	_, gone := handover(t, settled, []string{want[1]})
	repA.OwnershipChanged(gone)
	if cs := repA.Snapshot(); cs.FlipDrops != 1 || cs.Promoted != 0 {
		t.Fatalf("settled table without the home left %+v, want the promotion dropped", cs)
	}
}

func TestMarkReplicaSkipsOwnedKeys(t *testing.T) {
	tr := newTrio(t, testConfig())
	key := tr.keyOwnedBy(t, "a")
	repA := tr.reps["a"]
	repA.MarkReplica([]byte(key))
	if !repA.IsOwned(key) {
		t.Fatalf("home node marked its own key as replica-held")
	}
}

// TestReplicaTouchOnFullCacheDropsCopy: a touch that gives a promoted key
// a TTL reaches its replica as a put of the copy under that TTL. On a
// replica whose cache has no chunk for the copy's new class, it leaves no
// copy behind: one kept under no expiry would be served after the deadline
// its home set.
func TestReplicaTouchOnFullCacheDropsCopy(t *testing.T) {
	cc, err := cache.New(cache.PageSize, cache.WithShards(1))
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	pusher := NewLocalPusher()
	pusher.Register("r", LocalNode{Store: cc})
	const key = "hot"
	// The copy fills a smallest-class chunk exactly, so its TTL needs the
	// next class.
	fill := make([]byte, cc.ChunkSizes()[0]-cache.ItemOverhead-len(key))
	if err := pusher.Push("r", PushOp{Op: OpPut, Key: key, Value: fill}); err != nil {
		t.Fatalf("Push put: %v", err)
	}
	// The one page is class 0's; fill its last chunk.
	for i := 0; cc.ClassLen(0) < cc.ClassCapacity(0); i++ {
		if err := cc.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	if err := pusher.Push("r", PushOp{Op: OpPut, Key: key, Value: fill, Expiry: time.Now().Add(time.Hour)}); err != nil && !errors.Is(err, cache.ErrOutOfMemory) {
		t.Fatalf("Push touched copy: %v", err)
	}
	if v, _, exp, ok := cc.PeekFull(key); ok {
		t.Fatalf("replica still serves %d bytes under expiry %v after a touch it could not apply", len(v), exp)
	}
}
