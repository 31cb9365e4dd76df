package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cache"
)

func newShutdownServer(t *testing.T) *Server {
	t.Helper()
	c, err := cache.New(16 * cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// readLine round-trips one request so the connection is registered and
// serving before the test races Shutdown against it.
func handshake(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	if _, err := conn.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("handshake: %q, %v", line, err)
	}
}

// TestShutdownPipelinedClientSeesEOF pins the drain contract: a client
// with a pipelined burst in flight when Shutdown starts reads well-formed
// replies followed by a clean EOF — never ECONNRESET, never a torn reply.
func TestShutdownPipelinedClientSeesEOF(t *testing.T) {
	s := newShutdownServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	handshake(t, conn, br)

	var burst bytes.Buffer
	const sets = 200
	for i := 0; i < sets; i++ {
		fmt.Fprintf(&burst, "set shutdown-key-%03d 0 0 5\r\nhello\r\n", i)
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	stored := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("pipelined client saw connection reset after %d replies", stored)
			}
			if err != io.EOF {
				t.Fatalf("want clean EOF after %d replies, got %v", stored, err)
			}
			if line != "" {
				t.Fatalf("torn reply at EOF: %q", line)
			}
			break
		}
		if line != "STORED\r\n" {
			t.Fatalf("reply %d: %q", stored, line)
		}
		stored++
	}
	if stored == 0 {
		t.Fatal("drain answered none of the pipelined burst")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained writes must have landed.
	if s.Cache().Len() != stored {
		t.Fatalf("cache holds %d items, client saw %d STORED", s.Cache().Len(), stored)
	}
}

// TestShutdownStreamingClientSeesEOF: a client that keeps pipelining sets
// while Shutdown runs, so its receive queue is never empty at a flush
// boundary, is still closed at the second boundary after the drain, with
// FIN: Shutdown returns long before the drain timeout, and the client reads
// whole replies and a clean EOF.
func TestShutdownStreamingClientSeesEOF(t *testing.T) {
	s := newShutdownServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshake(t, conn, bufio.NewReader(conn))

	var chunk bytes.Buffer
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&chunk, "set stream-key-%03d 0 0 5\r\nhello\r\n", i)
	}
	stop, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := conn.Write(chunk.Bytes()); err != nil {
				return
			}
		}
	}()

	const reply = "STORED\r\n"
	var (
		buf      = make([]byte, 64<<10)
		partial  int // bytes of a reply split across reads
		replies  int
		shutdown chan time.Duration // how long Shutdown took, once started
	)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		n, err := conn.Read(buf)
		for _, b := range buf[:n] {
			if b != reply[partial] {
				t.Fatalf("reply %d: byte %q, want %q", replies, b, reply[partial])
			}
			if partial++; partial == len(reply) {
				partial, replies = 0, replies+1
			}
		}
		if err != nil {
			if errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("streaming client saw connection reset after %d replies", replies)
			}
			if err != io.EOF {
				t.Fatalf("want clean EOF after %d replies, got %v", replies, err)
			}
			break
		}
		// Shut down once the stream is flowing.
		if replies >= 5000 && shutdown == nil {
			shutdown = make(chan time.Duration, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), defaultDrainTimeout)
				defer cancel()
				start := time.Now()
				if err := s.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				shutdown <- time.Since(start)
			}()
		}
	}
	close(stop)
	<-writerDone
	_ = conn.(*net.TCPConn).CloseWrite()
	if partial != 0 {
		t.Fatalf("torn reply at EOF after %d replies", replies)
	}
	if shutdown == nil {
		t.Fatalf("the stream ended after %d replies, before the drain", replies)
	}
	if elapsed := <-shutdown; elapsed > defaultDrainTimeout/2 {
		t.Fatalf("shutdown of a streaming client took %v", elapsed)
	}
}

// TestShutdownIdleClientSeesEOF: a connection sitting in a blocked read
// with nothing in flight is woken at once and closed with FIN, and
// Shutdown returns without waiting for the client to hang up or for the
// drain timeout.
func TestShutdownIdleClientSeesEOF(t *testing.T) {
	s := newShutdownServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	handshake(t, conn, br)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("shutdown of an idle connection took %v", elapsed)
	}

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle client: want EOF, got %v", err)
	}
}

// TestShutdownMidRequestClientSeesStored: a client part-way through a set
// body when the drain starts may finish sending it: the set is answered,
// and then the connection closes with FIN.
func TestShutdownMidRequestClientSeesStored(t *testing.T) {
	s := newShutdownServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	handshake(t, conn, br)

	if _, err := conn.Write([]byte("set mid 0 0 10\r\nhello")); err != nil {
		t.Fatal(err)
	}
	// The drain starts once the server has read the request so far and
	// waits in a read for the rest of its body.
	for s.bytesRead.Load() < uint64(len("version\r\nset mid 0 0 10\r\nhello")) {
		time.Sleep(time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Let the drain wake the connection's read before the body completes.
	time.Sleep(100 * time.Millisecond)
	if _, err := conn.Write([]byte("world\r\n")); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := br.ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("mid-request client: reply %q, %v; want STORED", line, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("mid-request client: want EOF after the reply, got %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if v, ok := s.Cache().Peek("mid"); !ok || string(v) != "helloworld" {
		t.Fatalf("drained set stored %q, %v", v, ok)
	}
}

// TestShutdownRefusesNewConnections: once Shutdown begins, the listener
// is gone; a second Shutdown or Close is a no-op.
func TestShutdownRefusesNewConnections(t *testing.T) {
	s := newShutdownServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}
}
