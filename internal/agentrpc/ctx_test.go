package agentrpc

// Context-propagation tests for the RPC transport: cancelling the caller's
// context must unblock an in-flight round trip, the remaining deadline must
// ride the wire so the remote agent bounds its own work, and remote
// application errors must come back marked permanent so the Master's retry
// policy does not replay them.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/taskgroup"
)

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

// TestClientDeadlineRidesTheWire decodes the request frame and asserts the
// remaining context deadline arrived as TimeoutMS.
func TestClientDeadlineRidesTheWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := json.NewDecoder(bufio.NewReader(conn))
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		got <- req.TimeoutMS
		_ = json.NewEncoder(conn).Encode(&response{OK: true})
	}()

	cl := NewClient("echo", ln.Addr().String())
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.SendMetadata(ctx, 1, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	select {
	case ms := <-got:
		if ms <= 0 || ms > 5000 {
			t.Fatalf("TimeoutMS = %d, want the remaining deadline in (0, 5000]", ms)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never saw the request")
	}
}

// TestRemoteErrorsAreMarkedPermanent: an error the remote agent reported
// means the operation executed and failed deterministically — the retry
// loop must not replay it.
func TestRemoteErrorsAreMarkedPermanent(t *testing.T) {
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
		defer conn.Close()
		dec := json.NewDecoder(bufio.NewReader(conn))
		enc := json.NewEncoder(conn)
		for {
			var req request
			if err := dec.Decode(&req); err != nil {
				return
			}
			if err := enc.Encode(&response{Error: "remote application failure"}); err != nil {
				return
			}
		}
	}()

	cl := NewClient("failing", ln.Addr().String())
	defer cl.Close()
	err = cl.SendMetadata(context.Background(), 1, []string{"x"})
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
