package agentrpc

// Context-propagation tests for the RPC transport: cancelling the caller's
// context must unblock an in-flight round trip, the remaining deadline must
// ride the wire so the remote agent bounds its own work, remote
// application errors must come back marked permanent so the Master's retry
// policy does not replay them, and a peer of another frame version is a
// retryable failure.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/taskgroup"
)

// fakeAgent is a frame server that answers call frames with answer and
// hangs up on any other frame, as a peer that does not serve it would.
type fakeAgent struct {
	addr     string
	accepted atomic.Int32 // connections seen
	conns    sync.WaitGroup
}

func serveFake(t *testing.T, answer func(req *request) (*response, error)) *fakeAgent {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	f := &fakeAgent{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			f.conns.Add(1)
			go func() {
				defer f.conns.Done()
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				for {
					typ, payload, err := readFrame(br)
					if err != nil || typ != ftCall {
						return
					}
					var req request
					if err := json.Unmarshal(payload, &req); err != nil {
						return
					}
					resp, err := answer(&req)
					var body []byte
					if err == nil {
						body, err = json.Marshal(resp)
					}
					if writeFrame(bw, ftReply, append(appendStatus(nil, err), body...)) != nil {
						return
					}
				}
			}()
		}
	}()
	return f
}

// TestClientCancelUnblocksInflightCall parks a call against a server that
// never responds and asserts cancellation aborts it promptly.
func TestClientCancelUnblocksInflightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Swallow the request, never reply.
		buf := make([]byte, 1<<16)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	cl := NewClient("mute", ln.Addr().String())
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	err = cl.SendMetadata(ctx, 1, []string{"x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to unblock the call", elapsed)
	}
}

// TestClientDeadlineRidesTheWire decodes the call frame and asserts the
// remaining context deadline arrived as TimeoutMS.
func TestClientDeadlineRidesTheWire(t *testing.T) {
	got := make(chan int64, 1)
	f := serveFake(t, func(req *request) (*response, error) {
		got <- req.TimeoutMS
		return &response{}, nil
	})
	cl := NewClient("echo", f.addr)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.SendMetadata(ctx, 1, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if ms := <-got; ms <= 0 || ms > 5000 {
		t.Fatalf("TimeoutMS = %d, want the remaining deadline in (0, 5000]", ms)
	}
}

// TestClientSubMillisecondDeadline: a remaining deadline under one
// millisecond rounds up on the wire. Truncated, it would read 0, which
// the server takes as no deadline at all, and the op would run unbounded
// after the caller gave up. The call either reaches the server with
// TimeoutMS ≥ 1 or fails with the context's error.
func TestClientSubMillisecondDeadline(t *testing.T) {
	var mu sync.Mutex
	var seen []int64
	f := serveFake(t, func(req *request) (*response, error) {
		mu.Lock()
		seen = append(seen, req.TimeoutMS)
		mu.Unlock()
		return &response{}, nil
	})
	cl := NewClient("echo", f.addr)
	_ = cl.Score(context.Background()) // dial outside the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Microsecond)
	defer cancel()
	err := cl.SendMetadata(ctx, 1, []string{"x"})
	// The connection carries the same deadline, and its timeout can fire
	// a moment before the context's.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want nil or the deadline", err)
	}
	// Once the client hangs up, the server has read every frame it wrote.
	cl.Close()
	f.conns.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 1 || seen[0] != 0 {
		t.Fatalf("server saw TimeoutMS %v, want the undeadlined score first", seen)
	}
	for _, ms := range seen[1:] {
		if ms < 1 {
			t.Fatalf("server saw TimeoutMS %d for a live sub-millisecond deadline", ms)
		}
	}
	if err == nil && len(seen) != 2 {
		t.Fatalf("call succeeded but the server saw %d calls", len(seen))
	}
}

// TestRemoteErrorsAreMarkedPermanent: an error the remote agent reported
// means the operation executed and failed deterministically — the retry
// loop must not replay it.
func TestRemoteErrorsAreMarkedPermanent(t *testing.T) {
	f := serveFake(t, func(*request) (*response, error) {
		return nil, errors.New("remote application failure")
	})

	cl := NewClient("failing", f.addr)
	defer cl.Close()
	err := cl.SendMetadata(context.Background(), 1, []string{"x"})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if !taskgroup.IsPermanent(err) {
		t.Fatal("remote application error not marked permanent")
	}
	// Transport-level errors stay retryable.
	cl2 := NewClient("unreachable", "127.0.0.1:1")
	defer cl2.Close()
	if err := cl2.SendMetadata(context.Background(), 1, []string{"x"}); err == nil || taskgroup.IsPermanent(err) {
		t.Fatalf("dial failure should be retryable, got %v", err)
	}
}

// TestCallAgainstOtherFrameVersionFails: a peer that answers a call with
// a frame of another version (here 3, the version before control calls
// became frames) is refused, not half-understood. The failure names the
// version, is retryable, and the next call redials.
func TestCallAgainstOtherFrameVersionFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				if _, err := io.ReadFull(conn, make([]byte, frameHeaderLen)); err != nil {
					return
				}
				// A success reply, as a version-3 peer would frame it.
				_, _ = conn.Write([]byte{frameMagic, 3, ftReply, 0, 0, 0, 1, statusOK})
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()

	cl := NewClient("old", ln.Addr().String())
	defer cl.Close()
	for attempt := 1; attempt <= 2; attempt++ {
		err := cl.SendMetadata(context.Background(), 1, []string{"x"})
		if err == nil || !strings.Contains(err.Error(), "version 3") {
			t.Fatalf("attempt %d: err = %v, want a refusal naming version 3", attempt, err)
		}
		if taskgroup.IsPermanent(err) || errors.Is(err, ErrRemote) {
			t.Fatalf("attempt %d: err = %v, want a retryable transport error", attempt, err)
		}
		if got := accepted.Load(); int(got) != attempt {
			t.Fatalf("attempt %d: server saw %d connections, want a redial per call", attempt, got)
		}
	}
}
