package agentrpc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
)

// takesDirectory wraps a core.Directory and records every sender a
// ComputeTakes reply names.
type takesDirectory struct {
	inner core.Directory

	mu    sync.Mutex
	named map[string]bool
}

func (d *takesDirectory) Agent(node string) (core.MasterAgent, error) {
	ag, err := d.inner.Agent(node)
	if err != nil {
		return nil, err
	}
	return takesAgent{MasterAgent: ag, d: d}, nil
}

type takesAgent struct {
	core.MasterAgent
	d *takesDirectory
}

func (a takesAgent) ComputeTakes(ctx context.Context, round uint64) (agent.Takes, error) {
	takes, err := a.MasterAgent.ComputeTakes(ctx, round)
	a.d.mu.Lock()
	defer a.d.mu.Unlock()
	for sender := range takes {
		a.d.named[sender] = true
	}
	return takes, err
}

// TestFreshMasterIgnoresAbandonedRoundOverTCP: two fresh Masters over
// one AddressBook, as two elmem-master processes are. The first is
// cancelled right after phase 1, leaving its offers on the receivers; the
// second retires another node, and no receiver's takes name the first
// Master's sender. The round reaches the agents in the call frames and
// in the offerMeta frames.
func TestFreshMasterIgnoresAbandonedRoundOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	members := []string{"n0", "n1", "n2", "n3"}
	for _, name := range members {
		populate(t, startNode(t, book, name, 1, clk).agent, 300)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := core.NewMaster(book, members, core.WithClock(clk.Now),
		core.WithPhaseHook(func(phase string) {
			if phase == "metadata" {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	report, err := first.ScaleInNodes(ctx, []string{"n0"})
	if !errors.Is(err, context.Canceled) || report.Aborted != "fusecache" {
		t.Fatalf("premise: err = %v, aborted in %q; want a phase-2 cancellation", err, report.Aborted)
	}

	dir := &takesDirectory{inner: book, named: make(map[string]bool)}
	second, err := core.NewMaster(dir, members, core.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	report, err = second.ScaleInNodes(context.Background(), []string{"n3"})
	if err != nil {
		t.Fatal(err)
	}
	if dir.named["n0"] || !dir.named["n3"] {
		t.Fatalf("takes name senders %v, want n3 only", dir.named)
	}
	if report.ItemsMigrated != 300 {
		t.Fatalf("migrated %d items, want n3's 300", report.ItemsMigrated)
	}
}
