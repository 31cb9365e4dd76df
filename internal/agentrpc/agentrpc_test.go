package agentrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

// newTestClock hands out strictly increasing timestamps, 1µs apart.
func newTestClock() *clock.Fake { return clock.NewFake(time.Unix(1_700_000_000, 0), time.Microsecond) }

// rpcNode is one TCP-served agent for tests.
type rpcNode struct {
	agent  *agent.Agent
	server *Server
}

// startNode spins up an agent whose peer transport is the shared book,
// served over TCP, and registers it in the book.
func startNode(t *testing.T, book *AddressBook, name string, pages int, clk *clock.Fake) *rpcNode {
	t.Helper()
	c, err := cache.New(int64(pages)*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(name, c, book)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve("127.0.0.1:0", a, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	book.Register(name, s.Addr())
	return &rpcNode{agent: a, server: s}
}

func populate(t *testing.T, a *agent.Agent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := a.Cache().Set(fmt.Sprintf("%s-key-%05d", a.Node(), i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("want error for nil agent")
	}
}

func TestScoreOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	n := startNode(t, book, "n1", 2, clk)
	populate(t, n.agent, 25)

	cl, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	rep := cl.Score(context.Background())
	if rep.Node != "n1" || rep.Items != 25 {
		t.Fatalf("score = %+v", rep)
	}
	if len(rep.Medians) != 1 {
		t.Fatalf("medians = %v", rep.Medians)
	}
}

func TestThreePhaseMigrationOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	retiring := startNode(t, book, "retiring", 2, clk)
	r1 := startNode(t, book, "r1", 2, clk)
	r2 := startNode(t, book, "r2", 2, clk)
	populate(t, retiring.agent, 400)
	retained := []string{"r1", "r2"}

	retClient, err := book.Agent("retiring")
	if err != nil {
		t.Fatal(err)
	}
	if err := retClient.SendMetadata(context.Background(), 1, retained); err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, name := range retained {
		cl, err := book.Agent(name)
		if err != nil {
			t.Fatal(err)
		}
		takes, err := cl.ComputeTakes(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := retClient.SendData(context.Background(), 1, name, takes["retiring"])
		if err != nil {
			t.Fatal(err)
		}
		total += sent.Pairs
	}
	if total != 400 {
		t.Fatalf("migrated %d items over TCP, want 400", total)
	}

	ring, err := hashring.New(retained)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*rpcNode{"r1": r1, "r2": r2}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("retiring-key-%05d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !nodes[owner].agent.Cache().Contains(key) {
			t.Fatalf("key %s missing on %s after TCP migration", key, owner)
		}
	}
}

// TestAgentSentinelsCrossTCP: each agent sentinel error an op returns
// keeps its identity through a TCP round trip, as ErrRemote marked
// permanent, so the Master branches on it the same whatever the transport.
func TestAgentSentinelsCrossTCP(t *testing.T) {
	ctx := context.Background()
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	populate(t, startNode(t, book, "n1", 1, clk).agent, 50)
	cl, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) || !errors.Is(err, ErrRemote) || !taskgroup.IsPermanent(err) {
			t.Errorf("%s: err = %v, want a permanent ErrRemote that is %v", what, err, want)
		}
	}
	_, err = cl.ComputeTakes(ctx, 1)
	check("ComputeTakes without offers", err, agent.ErrNoMetadata)
	_, err = cl.SendData(ctx, 1, "n2", map[int]int{0: 1})
	check("SendData without picks", err, agent.ErrNoPicks)
	// Every item routes to the one retained node, which no book knows.
	err = cl.SendMetadata(ctx, 2, []string{"ghost"})
	check("SendMetadata to an unregistered peer", err, agent.ErrUnknownPeer)
	_, err = cl.ComputeTakes(ctx, 1)
	check("ComputeTakes of an older round", err, agent.ErrStaleRound)
}

// TestHashSplitOverTCP runs the scale-out hash split (Section III-D4)
// through a Master whose every agent sits behind TCP: the three phases
// toward the newcomer, then the release op on the surviving sender.
func TestHashSplitOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	e1 := startNode(t, book, "e1", 2, clk)
	n1 := startNode(t, book, "new1", 2, clk)
	populate(t, e1.agent, 300)

	m, err := core.NewMaster(book, []string{"e1"}, core.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleOut(context.Background(), []string{"new1"})
	if err != nil {
		t.Fatal(err)
	}
	moved := report.ItemsMigrated
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	if n1.agent.Cache().Len() != moved || report.ItemsReleased != moved {
		t.Fatalf("new node holds %d, released %d, want %d", n1.agent.Cache().Len(), report.ItemsReleased, moved)
	}
	if e1.agent.Cache().Len() != 300-moved {
		t.Fatalf("sender holds %d, want %d", e1.agent.Cache().Len(), 300-moved)
	}
}

func TestMasterOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	names := []string{"n0", "n1", "n2"}
	nodes := make(map[string]*rpcNode, len(names))
	for _, name := range names {
		nodes[name] = startNode(t, book, name, 2, clk)
	}
	ring, err := hashring.New(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		key := fmt.Sprintf("key-%05d", i)
		owner, err := ring.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[owner].agent.Cache().Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	m, err := core.NewMaster(book, names, core.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("no items migrated through the TCP master path")
	}
	retained := m.Members()
	ring2, err := hashring.New(retained)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		key := fmt.Sprintf("key-%05d", i)
		owner, err := ring2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !nodes[owner].agent.Cache().Contains(key) {
			t.Fatalf("key %s missing after TCP scale-in", key)
		}
	}
}

func TestUnknownPeer(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	if _, err := book.Peer("ghost"); !errors.Is(err, agent.ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestDeregisterClosesClient(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	startNode(t, book, "n1", 1, clk)
	if _, err := book.Agent("n1"); err != nil {
		t.Fatal(err)
	}
	book.Deregister("n1")
	if _, err := book.Agent("n1"); !errors.Is(err, agent.ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer after deregister", err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	n := startNode(t, book, "n1", 1, clk)
	populate(t, n.agent, 5)
	cl, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	if rep := cl.Score(context.Background()); rep.Items != 5 {
		t.Fatalf("pre-restart score = %+v", rep)
	}
	// Restart the server on a new port and re-register.
	if err := n.server.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Serve("127.0.0.1:0", n.agent, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	book.Register("n1", s2.Addr())
	cl2, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	if rep := cl2.Score(context.Background()); rep.Items != 5 {
		t.Fatalf("post-restart score = %+v", rep)
	}
}

func TestRemoteErrorWrapped(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	startNode(t, book, "n1", 1, clk)
	cl, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	// SendMetadata with an empty retained set errors remotely.
	if err := cl.SendMetadata(context.Background(), 1, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestConcurrentRPCs(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	n := startNode(t, book, "n1", 2, clk)
	populate(t, n.agent, 100)
	cl, err := book.Agent("n1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if rep := cl.Score(context.Background()); rep.Items != 100 {
					t.Errorf("score = %+v", rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}
