package agentrpc

// Integration tests for the binary streaming data plane over real TCP:
// windowed pipelined import end-to-end, the retryable failure against a
// server that does not serve import frames, TTL carriage, ack-based resume across
// a severed connection, and
// concurrent streams from several senders (the -race target for this
// package).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/taskgroup"
)

// clientTransport resolves every peer name to one fixed client.
type clientTransport struct{ cl *Client }

func (t clientTransport) Peer(string) (agent.Peer, error) { return t.cl, nil }

// newStreamSender builds a sender agent whose pushes go through cl.
func newStreamSender(t *testing.T, name string, cl *Client, clk *clock.Fake, opts ...agent.Option) *agent.Agent {
	t.Helper()
	c, err := cache.New(4*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(name, c, clientTransport{cl}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pickFor runs phase 1's selection on a toward "recv" without offering
// anything: SendData ships what it picked.
func pickFor(t testing.TB, a *agent.Agent) {
	t.Helper()
	if _, err := a.Pick(context.Background(), 1, []string{"recv"}); err != nil {
		t.Fatal(err)
	}
}

func takesFor(a *agent.Agent) map[int]int {
	takes := make(map[int]int)
	for _, classID := range a.Cache().PopulatedClasses() {
		takes[classID] = a.Cache().ClassLen(classID)
	}
	return takes
}

func TestStreamImportOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 4, clk)

	cl := NewClient("recv", recv.server.Addr())
	defer cl.Close()
	sender := newStreamSender(t, "sender", cl, clk,
		agent.WithTransferBatchSize(32), agent.WithMaxInflight(4))
	populateSized(t, sender, 500, 256)

	pickFor(t, sender)
	stats, err := sender.SendData(context.Background(), 1, "recv", takesFor(sender))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 500 || stats.Resumed != 0 {
		t.Fatalf("stats = %+v, want 500 fresh pairs", stats)
	}
	if stats.Batches < 500/32 {
		t.Fatalf("only %d batches for 500 pairs at batch size 32", stats.Batches)
	}
	if stats.WireBytes <= stats.BytesMoved {
		t.Fatalf("wire bytes %d should exceed payload bytes %d (framing overhead)", stats.WireBytes, stats.BytesMoved)
	}
	// Binary pair records beat the retired JSON data plane's ~33% base64
	// inflation: with 256-byte values the overhead over raw key+value stays
	// under 20%.
	if float64(stats.WireBytes) > 1.2*float64(stats.BytesMoved) {
		t.Fatalf("wire overhead %.1f%%, want < 20%%",
			100*float64(stats.WireBytes-stats.BytesMoved)/float64(stats.BytesMoved))
	}
	if got := recv.agent.Cache().Len(); got != 500 {
		t.Fatalf("receiver holds %d, want 500", got)
	}
	// MRU order must survive the windowed stream (invariant I2 end to end).
	for _, classID := range recv.agent.Cache().PopulatedClasses() {
		metas, err := recv.agent.Cache().DumpClass(classID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(metas); i++ {
			if metas[i].LastAccess.After(metas[i-1].LastAccess) {
				t.Fatalf("class %d out of MRU order at %d after streamed import", classID, i)
			}
		}
	}
	// Control ops still work on the same connection.
	if rep := cl.Score(context.Background()); rep.Items != 500 {
		t.Fatalf("post-stream score = %+v", rep)
	}
}

// TestStreamCarriesTTLOverTCP: an item set with a TTL keeps its deadline
// across a real migration — the receiver reports the same Expiry and the
// item dies on schedule instead of turning immortal on its new owner.
func TestStreamCarriesTTLOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 4, clk)

	cl := NewClient("recv", recv.server.Addr())
	defer cl.Close()
	sender := newStreamSender(t, "sender", cl, clk)
	deadline := clk.Now().Add(time.Minute)
	if err := sender.Cache().SetBytes([]byte("mortal"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	if err := sender.Cache().Set("immortal", []byte("v")); err != nil {
		t.Fatal(err)
	}

	pickFor(t, sender)
	stats, err := sender.SendData(context.Background(), 1, "recv", takesFor(sender))
	if err != nil || stats.Pairs != 2 {
		t.Fatalf("send = %+v, %v; want 2 pairs", stats, err)
	}
	rc := recv.agent.Cache()
	classID := rc.PopulatedClasses()[0]
	got := make(map[string]time.Time)
	if _, err := rc.FetchTopStream(classID, 2, nil, 0, 0, func(b cache.StreamBatch) error {
		for _, p := range b.Pairs {
			got[p.Key] = p.Expiry
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if exp, ok := got["mortal"]; !ok || !exp.Equal(deadline) {
		t.Fatalf("receiver's expiry for the TTL'd item = %v (present %v), want %v", exp, ok, deadline)
	}
	if exp, ok := got["immortal"]; !ok || !exp.IsZero() {
		t.Fatalf("receiver's expiry for the plain item = %v (present %v), want none", exp, ok)
	}

	clk.Set(deadline.Add(time.Second))
	if _, err := rc.Get("mortal"); !errors.Is(err, cache.ErrNotFound) {
		t.Fatalf("TTL'd item after its deadline: err = %v, want ErrNotFound", err)
	}
	if _, err := rc.Get("immortal"); err != nil {
		t.Fatalf("plain item after the deadline: %v", err)
	}
}

// TestOpenImportAgainstNonFramingServerFails: there is one data plane and
// no downgrade. A peer that serves control calls (here only `score`) but
// hangs up on the import frames cannot answer the open frame: that is an
// ordinary transport failure — retryable, not Permanent, nothing applied —
// and the client recovers by redialling, not by pinning itself to another
// protocol.
func TestOpenImportAgainstNonFramingServerFails(t *testing.T) {
	clk := newTestClock()
	recvCache, err := cache.New(4*cache.PageSize, cache.WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := agent.New("recv", recvCache, NewAddressBook())
	if err != nil {
		t.Fatal(err)
	}
	f := serveFake(t, func(req *request) (*response, error) {
		if req.Op != opScore {
			return nil, fmt.Errorf("unsupported op %q", req.Op)
		}
		rep := recv.Score(context.Background())
		return &response{Score: &rep}, nil
	})
	cl := NewClient("recv", f.addr)
	defer cl.Close()
	sender := newStreamSender(t, "sender", cl, clk, agent.WithTransferBatchSize(32))
	populate(t, sender, 200)

	for attempt := 1; attempt <= 2; attempt++ {
		pickFor(t, sender)
		_, err := sender.SendData(context.Background(), 1, "recv", takesFor(sender))
		if err == nil {
			t.Fatalf("attempt %d: push to a non-framing server succeeded", attempt)
		}
		if taskgroup.IsPermanent(err) || errors.Is(err, ErrRemote) {
			t.Fatalf("attempt %d: err = %v, want a retryable transport error", attempt, err)
		}
		// Each attempt dials afresh: the failed connection was dropped, and
		// nothing sticky short-circuits the retry.
		if got := f.accepted.Load(); int(got) != attempt {
			t.Fatalf("attempt %d: server saw %d connections", attempt, got)
		}
	}
	if got := recv.Cache().Len(); got != 0 {
		t.Fatalf("receiver holds %d pairs after failed opens, want none", got)
	}
	// Control calls still work: the client redials.
	if rep := cl.Score(context.Background()); rep.Node != "recv" {
		t.Fatalf("score after failed opens = %+v", rep)
	}
	if got := f.accepted.Load(); got != 3 {
		t.Fatalf("server saw %d connections, want 3 (two failed opens + one redial)", got)
	}
}

// cutProxy relays TCP to target but severs the first connection after
// limit client→server bytes (0: never); later connections pass through
// untouched. sent counts the client→server bytes relayed.
func cutProxy(t *testing.T, target string, limit int) (addr string, sent *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	sent = new(atomic.Int64)
	first := true
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cut := 0
			if first {
				first, cut = false, limit
			}
			go func(conn net.Conn, cut int) {
				up, err := net.Dial("tcp", target)
				if err != nil {
					conn.Close()
					return
				}
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { // client → server, optionally cut
					defer wg.Done()
					buf := make([]byte, 4096)
					relayed := 0
					for {
						n, err := conn.Read(buf)
						if n > 0 {
							if _, werr := up.Write(buf[:n]); werr != nil {
								break
							}
							sent.Add(int64(n))
							relayed += n
							if cut > 0 && relayed >= cut {
								break // sever mid-stream
							}
						}
						if err != nil {
							break
						}
					}
					conn.Close()
					up.Close()
				}()
				go func() { // server → client
					defer wg.Done()
					buf := make([]byte, 4096)
					for {
						n, err := up.Read(buf)
						if n > 0 {
							if _, werr := conn.Write(buf[:n]); werr != nil {
								break
							}
						}
						if err != nil {
							break
						}
					}
				}()
				wg.Wait()
			}(conn, cut)
		}
	}()
	return ln.Addr().String(), sent
}

// TestStreamResumeOverTCP is the kill-and-retry path end to end: the
// connection dies mid-stream, the retried push reopens the same stream
// identity over a fresh connection, and the receiver's acked high-water
// mark spares every batch that already landed.
func TestStreamResumeOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 4, clk)

	// Cut the first connection ~20 KiB in: the open and a few batches land,
	// then the stream dies.
	addr, _ := cutProxy(t, recv.server.Addr(), 20<<10)
	cl := NewClient("recv", addr)
	defer cl.Close()
	sender := newStreamSender(t, "sender", cl, clk,
		agent.WithTransferBatchSize(16), agent.WithMaxInflight(4))
	populateSized(t, sender, 400, 64)
	takes := takesFor(sender)

	pickFor(t, sender)
	if _, err := sender.SendData(context.Background(), 1, "recv", takes); err == nil {
		t.Fatal("want the severed connection to fail the push")
	}
	applied := recv.agent.Cache().Len()
	if applied == 0 || applied >= 400 {
		t.Fatalf("receiver holds %d after the cut, want a strict partial", applied)
	}

	stats, err := sender.SendData(context.Background(), 1, "recv", takes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 400 {
		t.Fatalf("retry covered %d pairs, want 400", stats.Pairs)
	}
	if stats.Resumed == 0 {
		t.Fatal("retry re-shipped everything: the ack high-water mark was ignored")
	}
	// The receiver's applier may still be draining buffered frames when the
	// client observes the cut, so the snapshot is only a lower bound.
	if stats.Resumed < applied {
		t.Fatalf("retry skipped only %d pairs, receiver already had %d applied", stats.Resumed, applied)
	}
	if got := recv.agent.Cache().Len(); got != 400 {
		t.Fatalf("receiver holds %d after resume, want 400", got)
	}
}

func populateSized(t testing.TB, a *agent.Agent, n, valLen int) {
	t.Helper()
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := a.Cache().Set(fmt.Sprintf("%s-key-%05d", a.Node(), i), val); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStreamsOverTCP hammers one receiver with four streaming
// senders plus a stream-concurrent control-op client — the -race workout
// for the server's applier/writer split.
func TestConcurrentStreamsOverTCP(t *testing.T) {
	book := NewAddressBook()
	defer book.Close()
	clk := newTestClock()
	recv := startNode(t, book, "recv", 8, clk)

	const senders, perSender = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, senders+1)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cl := NewClient("recv", recv.server.Addr())
			defer cl.Close()
			sender := newStreamSender(t, fmt.Sprintf("sender-%d", s), cl, clk,
				agent.WithTransferBatchSize(16), agent.WithMaxInflight(4))
			populate(t, sender, perSender)
			pickFor(t, sender)
			stats, err := sender.SendData(context.Background(), 1, "recv", takesFor(sender))
			if err != nil {
				errs <- err
				return
			}
			if stats.Pairs != perSender {
				errs <- fmt.Errorf("sender %d moved %d pairs, want %d", s, stats.Pairs, perSender)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := NewClient("recv", recv.server.Addr())
		defer cl.Close()
		for i := 0; i < 50; i++ {
			if rep := cl.Score(context.Background()); rep.Node != "recv" {
				errs <- fmt.Errorf("score = %+v", rep)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := recv.agent.Cache().Len(); got != senders*perSender {
		t.Fatalf("receiver holds %d, want %d", got, senders*perSender)
	}
}
