package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/hashring"
)

// newTestClock hands out strictly increasing timestamps, 1µs apart.
func newTestClock() *clock.Fake { return clock.NewFake(time.Unix(1_700_000_000, 0), time.Microsecond) }

// cluster bundles an in-process node fleet for Master tests.
type cluster struct {
	reg *agent.Registry
	clk *clock.Fake
}

func newCluster(t *testing.T, names []string, pages int) *cluster {
	t.Helper()
	c := &cluster{reg: agent.NewRegistry(), clk: newTestClock()}
	for _, name := range names {
		c.addNode(t, name, pages)
	}
	return c
}

func (c *cluster) addNode(t *testing.T, name string, pages int) *agent.Agent {
	t.Helper()
	cc, err := cache.New(int64(pages)*cache.PageSize, cache.WithClock(c.clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(name, cc, c.reg)
	if err != nil {
		t.Fatal(err)
	}
	c.reg.Register(a)
	return a
}

func (c *cluster) agent(t *testing.T, name string) *agent.Agent {
	t.Helper()
	a, err := c.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// populateByRing distributes n keys across members according to the ring,
// so the data placement matches what clients would have produced.
func (c *cluster) populateByRing(t *testing.T, members []string, n int) {
	t.Helper()
	ring, err := hashring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.agent(t, owner).Cache().Set(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%02d", i)
	}
	return out
}

func newTestMaster(t *testing.T, c *cluster, members []string, opts ...Option) *Master {
	t.Helper()
	opts = append(opts, WithClock(c.clk.Now))
	m, err := NewMaster(RegistryDirectory{Registry: c.reg}, members, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMasterValidation(t *testing.T) {
	c := newCluster(t, names(2), 1)
	if _, err := NewMaster(nil, names(2)); err == nil {
		t.Fatal("want error for nil directory")
	}
	if _, err := NewMaster(RegistryDirectory{Registry: c.reg}, nil); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for empty membership")
	}
}

func TestMembersSortedCopy(t *testing.T) {
	c := newCluster(t, []string{"b", "a"}, 1)
	m := newTestMaster(t, c, []string{"b", "a"})
	got := m.Members()
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("Members = %v, want sorted", got)
	}
	got[0] = "mutated"
	if m.Members()[0] != "a" {
		t.Fatal("Members returned internal slice")
	}
}

// tableLog is an ownership listener recording every announced table.
type tableLog []*hashring.Table

func (l *tableLog) OwnershipChanged(t *hashring.Table) { *l = append(*l, t) }

// settled returns the settled tables among the announcements, in order.
func (l tableLog) settled() []*hashring.Table {
	var out []*hashring.Table
	for _, t := range l {
		if t.Settled() {
			out = append(out, t)
		}
	}
	return out
}

func TestSubscribeDeliversCurrentMembership(t *testing.T) {
	c := newCluster(t, names(3), 1)
	m := newTestMaster(t, c, names(3))
	var got tableLog
	m.Subscribe(&got)
	if len(got) != 1 || got[0] != m.OwnershipTable() || len(got[0].Members()) != 3 {
		t.Fatalf("listener got %d tables on subscribe, want the current 3-member one", len(got))
	}
}

func TestScoreNodesColdestFirst(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 1)
	// node-00 written first → coldest medians; node-02 last → hottest.
	for _, name := range members {
		a := c.agent(t, name)
		for i := 0; i < 50; i++ {
			if err := a.Cache().Set(fmt.Sprintf("%s-k%d", name, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := newTestMaster(t, c, members)
	scores, err := m.ScoreNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Node != "node-00" || scores[2].Node != "node-02" {
		t.Fatalf("score order = %v, want coldest (node-00) first", scores)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].Score < scores[i-1].Score {
			t.Fatal("scores not ascending")
		}
	}
}

func TestSelectRetiringValidation(t *testing.T) {
	c := newCluster(t, names(3), 1)
	m := newTestMaster(t, c, names(3))
	if _, err := m.SelectRetiring(context.Background(), 0); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for x=0")
	}
	if _, err := m.SelectRetiring(context.Background(), 3); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for retiring all nodes")
	}
}

func TestScaleInMigratesAndFlipsMembership(t *testing.T) {
	members := names(4)
	c := newCluster(t, members, 4)
	c.populateByRing(t, members, 4000)

	stopped := make(map[string]bool)
	m := newTestMaster(t, c, members, WithNodeStopper(func(n string) error {
		stopped[n] = true
		return nil
	}))
	var tables tableLog
	m.Subscribe(&tables)

	report, err := m.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Direction != "in" || len(report.Retiring) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("no items migrated")
	}
	if len(report.Members) != 3 || !slices.Equal(report.Members, m.Members()) {
		t.Fatalf("report.Members = %v, Members() = %v, want the same 3", report.Members, m.Members())
	}
	if !stopped[report.Retiring[0]] {
		t.Fatal("retiring node not stopped")
	}
	settled := tables.settled()
	if len(settled) != 2 { // initial + post-scale
		t.Fatalf("listener saw %d settled tables, want 2", len(settled))
	}
	if final := settled[1]; final != tables[len(tables)-1] ||
		final.Version() != report.OwnershipVersion || !slices.Equal(final.Members(), report.Members) {
		t.Fatalf("last announcement v%d over %v, want the settled v%d over %v",
			final.Version(), final.Members(), report.OwnershipVersion, report.Members)
	}

	// Every key must be resident on its post-scale owner.
	retained := m.Members()
	ring, err := hashring.New(retained)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !c.agent(t, owner).Cache().Contains(key) {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d of 4000 keys missing after ElMem scale-in (plenty of capacity)", missing)
	}
	unapplied := 0
	for _, d := range report.Data {
		unapplied += d.Unapplied
	}
	if report.ItemsUnapplied != 0 || unapplied != 0 {
		t.Fatalf("ItemsUnapplied = %d (per push %d), want 0 with plenty of capacity", report.ItemsUnapplied, unapplied)
	}

	// Phase timings recorded in order.
	wantPhases := []string{"score", "metadata", "fusecache", "data", "handover", "membership"}
	if len(report.Timings) != len(wantPhases) {
		t.Fatalf("timings = %v", report.Timings)
	}
	for i, ph := range wantPhases {
		if report.Timings[i].Phase != ph {
			t.Fatalf("timing %d = %s, want %s", i, report.Timings[i].Phase, ph)
		}
	}
}

func TestScaleInNodesValidation(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 1)
	m := newTestMaster(t, c, members)
	if _, err := m.ScaleInNodes(context.Background(), []string{"ghost"}); !errors.Is(err, ErrNotMember) {
		t.Fatal("want ErrNotMember")
	}
	if _, err := m.ScaleInNodes(context.Background(), nil); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for empty set")
	}
	if _, err := m.ScaleInNodes(context.Background(), members); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for retiring everything")
	}
}

func TestScaleInPicksColdestNode(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 2)
	// Make node-01 the cold node: populate it first.
	order := []string{"node-01", "node-00", "node-02"}
	for _, name := range order {
		a := c.agent(t, name)
		for i := 0; i < 200; i++ {
			if err := a.Cache().Set(fmt.Sprintf("%s-k%04d", name, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := newTestMaster(t, c, members)
	report, err := m.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Retiring[0] != "node-01" {
		t.Fatalf("retired %s, want the coldest node-01", report.Retiring[0])
	}
}

func TestScaleOut(t *testing.T) {
	members := names(3)
	c := newCluster(t, members, 4)
	c.populateByRing(t, members, 3000)
	m := newTestMaster(t, c, members)

	c.addNode(t, "node-99", 4)
	report, err := m.ScaleOut(context.Background(), []string{"node-99"})
	if err != nil {
		t.Fatal(err)
	}
	if report.Direction != "out" || report.ItemsMigrated == 0 {
		t.Fatalf("report = %+v", report)
	}
	if len(m.Members()) != 4 {
		t.Fatalf("membership size %d, want 4", len(m.Members()))
	}
	// All keys resident on post-scale owners.
	ring, err := hashring.New(m.Members())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !c.agent(t, owner).Cache().Contains(key) {
			t.Fatalf("key %s missing after scale-out", key)
		}
	}
	// Roughly 1/4 of keys moved to the new node.
	newLen := c.agent(t, "node-99").Cache().Len()
	if newLen < 300 || newLen > 1500 {
		t.Fatalf("new node holds %d keys, want ≈750", newLen)
	}
}

func TestScaleOutValidation(t *testing.T) {
	members := names(2)
	c := newCluster(t, members, 1)
	m := newTestMaster(t, c, members)
	if _, err := m.ScaleOut(context.Background(), nil); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for empty add")
	}
	if _, err := m.ScaleOut(context.Background(), []string{"node-00"}); !errors.Is(err, ErrBadScale) {
		t.Fatal("want ErrBadScale for duplicate member")
	}
	if _, err := m.ScaleOut(context.Background(), []string{"unregistered"}); err == nil {
		t.Fatal("want error for unreachable new node")
	}
}

func TestScaleInThenOutRoundTrip(t *testing.T) {
	members := names(4)
	c := newCluster(t, members, 4)
	c.populateByRing(t, members, 2000)
	m := newTestMaster(t, c, members)

	inReport, err := m.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	retired := inReport.Retiring[0]
	// Restart the retired node empty (cold) and add it back.
	c.reg.Deregister(retired)
	c.addNode(t, retired, 4)
	if _, err := m.ScaleOut(context.Background(), []string{retired}); err != nil {
		t.Fatal(err)
	}
	if len(m.Members()) != 4 {
		t.Fatalf("membership size %d, want 4", len(m.Members()))
	}
	ring, err := hashring.New(m.Members())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !c.agent(t, owner).Cache().Contains(key) {
			t.Fatalf("key %s lost across in/out round trip", key)
		}
	}
}

// TestColdestChoiceMigratesFewerItems reproduces the III-C claim in
// miniature: retiring the coldest-scored node moves no more items than
// retiring the hottest-scored one, because FuseCache drops items colder
// than the receivers' tails.
func TestColdestChoiceMigratesFewerItems(t *testing.T) {
	run := func(pickColdest bool) int {
		members := names(3)
		c := newCluster(t, members, 1)
		// node-00: many cold items (filled first, near page capacity).
		// node-01, node-02: hot items, full pages.
		perPage := cache.PageSize / cache.MinChunkSize
		for _, name := range members {
			a := c.agent(t, name)
			for i := 0; i < perPage; i++ {
				if err := a.Cache().Set(fmt.Sprintf("%s-k%05d", name, i), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := newTestMaster(t, c, members)
		scores, err := m.ScoreNodes(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var victim string
		if pickColdest {
			victim = scores[0].Node
		} else {
			victim = scores[len(scores)-1].Node
		}
		report, err := m.ScaleInNodes(context.Background(), []string{victim})
		if err != nil {
			t.Fatal(err)
		}
		return report.ItemsMigrated
	}
	cold := run(true)
	hot := run(false)
	if cold > hot {
		t.Fatalf("coldest choice migrated %d items, hottest %d — want cold <= hot", cold, hot)
	}
}

// TestScaleInMultipleNodes retires several nodes in one action (the
// paper's SYS case is 10→7): FuseCache on each receiver merges k=4 lists
// (3 senders + its own) and no key may be lost with capacity to spare.
func TestScaleInMultipleNodes(t *testing.T) {
	members := names(6)
	c := newCluster(t, members, 4)
	c.populateByRing(t, members, 6000)
	m := newTestMaster(t, c, members)

	report, err := m.ScaleIn(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Retiring) != 3 {
		t.Fatalf("retired %v", report.Retiring)
	}
	if got := len(m.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
	ring, err := hashring.New(m.Members())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !c.agent(t, owner).Cache().Contains(key) {
			t.Fatalf("key %s lost in 6→3 scale-in", key)
		}
	}
}

// TestRepeatedScaleInsConverge drives the tier down one node at a time,
// checking membership and data placement at every step.
func TestRepeatedScaleInsConverge(t *testing.T) {
	members := names(5)
	c := newCluster(t, members, 4)
	c.populateByRing(t, members, 3000)
	m := newTestMaster(t, c, members)

	for want := 4; want >= 2; want-- {
		if _, err := m.ScaleIn(context.Background(), 1); err != nil {
			t.Fatalf("scale to %d: %v", want, err)
		}
		if got := len(m.Members()); got != want {
			t.Fatalf("members = %d, want %d", got, want)
		}
		ring, err := hashring.New(m.Members())
		if err != nil {
			t.Fatal(err)
		}
		missing := 0
		for i := 0; i < 3000; i++ {
			key := fmt.Sprintf("key-%06d", i)
			owner, err := ring.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !c.agent(t, owner).Cache().Contains(key) {
				missing++
			}
		}
		if missing != 0 {
			t.Fatalf("at %d nodes: %d keys missing", want, missing)
		}
	}
}
