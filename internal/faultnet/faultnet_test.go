package faultnet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/core"
)

// replaySequence drives one fixed call pattern against a schedule and
// returns its fingerprint.
func replaySequence(n *Network) string {
	links := [][2]string{{"n0", "n1"}, {"n1", "n0"}, {"master", "n0"}, {"master", "n2"}}
	ops := []string{OpSendMetadata, OpImportData, OpComputeTakes, "write"}
	for round := 0; round < 50; round++ {
		for _, l := range links {
			for _, op := range ops {
				n.Decide(l[0], l[1], op, op == "write")
			}
		}
	}
	return n.Fingerprint()
}

func lossyRule() Rule {
	return Rule{Drop: 0.2, DropReply: 0.2, Dup: 0.2, Delay: 0.2, Reset: 0.2, PartialWrite: 0.2, MaxDelay: time.Millisecond}
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b := New(42), New(42)
	a.SetDefault(lossyRule())
	b.SetDefault(lossyRule())
	fa, fb := replaySequence(a), replaySequence(b)
	if fa != fb {
		t.Fatal("same seed produced different schedules")
	}
	if a.InjectedCount() == 0 {
		t.Fatal("lossy rule injected nothing in 800 decisions")
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	a, b := New(1), New(2)
	a.SetDefault(lossyRule())
	b.SetDefault(lossyRule())
	if replaySequence(a) == replaySequence(b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFingerprintOrderIndependent: the canonical fingerprint must not
// depend on the interleaving of decisions across links, only on each
// link's own decision stream.
func TestFingerprintOrderIndependent(t *testing.T) {
	a, b := New(7), New(7)
	a.SetDefault(lossyRule())
	b.SetDefault(lossyRule())
	for i := 0; i < 30; i++ {
		a.Decide("x", "y", OpImportData, false)
	}
	for i := 0; i < 30; i++ {
		a.Decide("y", "x", OpImportData, false)
	}
	// Same per-link streams, interleaved.
	for i := 0; i < 30; i++ {
		b.Decide("y", "x", OpImportData, false)
		b.Decide("x", "y", OpImportData, false)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on cross-link interleaving")
	}
}

func TestRulePrecedence(t *testing.T) {
	n := New(1)
	n.SetDefault(Rule{})
	n.SetOpRule(OpImportData, Rule{Drop: 1})
	n.SetLinkRule("a", "b", Rule{Dup: 1})

	if d := n.Decide("a", "b", OpImportData, false); d.Action != ActDup {
		t.Fatalf("link rule over op rule: got %v, want dup", d.Action)
	}
	if d := n.Decide("a", "b", OpSendData, false); d.Action != ActDup {
		t.Fatalf("link rule: got %v, want dup", d.Action)
	}
	if d := n.Decide("x", "y", OpImportData, false); d.Action != ActDrop {
		t.Fatalf("op rule: got %v, want drop", d.Action)
	}
	if d := n.Decide("x", "y", OpSendData, false); d.Action != ActPass {
		t.Fatalf("default: got %v, want pass", d.Action)
	}
}

func TestPartitionCutsOneDirectionOnly(t *testing.T) {
	n := New(1)
	n.Partition("a", "b")
	if d := n.Decide("a", "b", OpImportData, false); d.Action != ActPartition {
		t.Fatalf("cut direction: got %v", d.Action)
	}
	if d := n.Decide("b", "a", OpImportData, false); d.Action != ActPass {
		t.Fatalf("reverse direction: got %v", d.Action)
	}
	n.Heal("a", "b")
	if d := n.Decide("a", "b", OpImportData, false); d.Action != ActPass {
		t.Fatalf("healed link: got %v", d.Action)
	}
}

func TestSetEnabledFreezesInjection(t *testing.T) {
	n := New(1)
	n.SetDefault(Rule{Drop: 1})
	n.SetEnabled(false)
	if d := n.Decide("a", "b", OpImportData, false); d.Action != ActPass {
		t.Fatalf("disabled network injected %v", d.Action)
	}
	n.SetEnabled(true)
	if d := n.Decide("a", "b", OpImportData, false); d.Action != ActDrop {
		t.Fatalf("re-enabled network passed, want drop")
	}
}

func TestApplySemantics(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		rule       Rule
		deliveries int
		wantErr    bool
	}{
		{"drop", Rule{Drop: 1}, 0, true},
		{"drop_reply", Rule{DropReply: 1}, 1, true},
		{"dup", Rule{Dup: 1}, 2, false},
		{"delay", Rule{Delay: 1, MaxDelay: time.Millisecond}, 1, false},
		{"partition", Rule{Partition: true}, 0, true},
		{"pass", Rule{}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(5)
			n.SetDefault(tc.rule)
			calls := 0
			err := n.apply(ctx, "a", "b", OpImportData, func() error {
				calls++
				return nil
			})
			if calls != tc.deliveries {
				t.Fatalf("deliveries = %d, want %d", calls, tc.deliveries)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("err %v is not ErrInjected", err)
			}
		})
	}
}

// TestWrappedTransportDuplicateIsIdempotent: a duplicated import batch
// through the wrapped transport must leave the receiver exactly as one
// delivery would — the replay-safety property the batch import guarantees.
func TestWrappedTransportDuplicateIsIdempotent(t *testing.T) {
	mkCache := func() *cache.Cache {
		c, err := cache.New(8 * cache.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(dup bool) *cache.Cache {
		reg := agent.NewRegistry()
		cA, cB := mkCache(), mkCache()
		n := New(99)
		if dup {
			n.SetOpRule(OpImportData, Rule{Dup: 1})
		}
		agA, err := agent.New("A", cA, WrapTransport(n, "A", reg))
		if err != nil {
			t.Fatal(err)
		}
		agB, err := agent.New("B", cB, WrapTransport(n, "B", reg))
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(agA)
		reg.Register(agB)

		base := time.Unix(1_700_000_000, 0)
		pairs := []cache.KV{ // coldest-first, as a session ships them
			{Key: "mild", Value: []byte("v3"), LastAccess: base.Add(time.Second)},
			{Key: "warm", Value: []byte("v2"), LastAccess: base.Add(2 * time.Second)},
			{Key: "hot", Value: []byte("v1"), LastAccess: base.Add(3 * time.Second)},
		}
		peer, err := WrapTransport(n, "A", reg).Peer("B")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sess, err := peer.OpenImport(ctx, "A", 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(ctx, 1, pairs); err != nil {
			t.Fatal(err)
		}
		if sum, err := sess.Close(ctx); err != nil || sum.Imported != len(pairs) {
			t.Fatalf("close = %+v, %v; want %d imported once", sum, err, len(pairs))
		}
		return cB
	}
	once, duped := run(false), run(true)
	for _, classID := range once.PopulatedClasses() {
		a, err := once.ClassOrderByShard(classID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := duped.ClassOrderByShard(classID)
		if err != nil {
			t.Fatal(err)
		}
		for si := range a {
			if len(a[si]) != len(b[si]) {
				t.Fatalf("class %d shard %d: %d items vs %d after duplicate", classID, si, len(a[si]), len(b[si]))
			}
			for i := range a[si] {
				if a[si][i].Key != b[si][i].Key || !a[si][i].LastAccess.Equal(b[si][i].LastAccess) {
					t.Fatalf("class %d shard %d pos %d: %v vs %v", classID, si, i, a[si][i], b[si][i])
				}
			}
		}
	}
}

// TestWrappedDirectoryDropIsRetryable: injected drops must present as
// transient errors so the Master's retry machinery masks them.
func TestWrappedDirectoryDropIsRetryable(t *testing.T) {
	n := New(3)
	n.SetLinkRule("master", "B", Rule{Drop: 1})
	reg := agent.NewRegistry()
	c, err := cache.New(cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agent.New("B", c, reg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(ag)
	dir := WrapDirectory(n, "master", core.RegistryDirectory{Registry: reg})
	ma, err := dir.Agent("B")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ma.ComputeTakes(context.Background(), 1)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if strings.Contains(err.Error(), "permanent") {
		t.Fatalf("injected error looks permanent: %v", err)
	}
}
