package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/memproto"
)

// newTestServer serves a 4-page cache built with opts.
func newTestServer(t *testing.T, opts ...cache.Option) *Server {
	t.Helper()
	c, err := cache.New(4*cache.PageSize, opts...)
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

// rawConn is a test helper speaking the protocol directly.
type rawConn struct {
	nc    net.Conn
	reply *memproto.ReplyReader
	w     *bufio.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &rawConn{nc: nc, reply: memproto.NewReplyReader(nc), w: bufio.NewWriter(nc)}
}

func (rc *rawConn) send(t *testing.T, s string) {
	t.Helper()
	if _, err := rc.w.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestListenRejectsNilCache(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("want error for nil cache")
	}
}

func TestSetGetDelete(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "set foo 0 0 5\r\nhello\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("set reply = %q, %v", line, err)
	}

	rc.send(t, "get foo\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if string(values["foo"]) != "hello" {
		t.Fatalf("get = %q", values["foo"])
	}

	rc.send(t, "delete foo\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "DELETED" {
		t.Fatalf("delete reply = %q, %v", line, err)
	}

	rc.send(t, "delete foo\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "NOT_FOUND" {
		t.Fatalf("second delete reply = %q, %v", line, err)
	}
}

func TestGetMiss(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "get nothing\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Fatalf("miss returned %v", values)
	}
}

func TestMultiGetPartial(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "get a missing b\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || string(values["a"]) != "x" {
		t.Fatalf("values = %v", values)
	}
}

func TestNoReplySet(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1 noreply\r\nx\r\nget a\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if string(values["a"]) != "x" {
		t.Fatalf("values = %v", values)
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "get a\r\nget zz\r\n")
	if _, err := rc.reply.ReadValues(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.reply.ReadValues(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "stats\r\n")
	stats, err := rc.reply.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["get_hits"] != "1" || stats["get_misses"] != "1" {
		t.Fatalf("stats = %v", stats)
	}
	if stats["curr_items"] != "1" {
		t.Fatalf("curr_items = %v", stats["curr_items"])
	}
	if stats["import_refused"] != "0" {
		t.Fatalf("import_refused = %q, want 0", stats["import_refused"])
	}
	// Per-slab stats present.
	found := false
	for name := range stats {
		if strings.Contains(name, ":chunk_size") {
			found = true
		}
	}
	if !found {
		t.Fatal("no per-slab stats reported")
	}
}

func TestFlushAllAndVersion(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "flush_all\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "OK" {
		t.Fatalf("flush reply = %q", line)
	}
	rc.send(t, "get a\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || len(values) != 0 {
		t.Fatalf("post-flush get = %v, %v", values, err)
	}
	rc.send(t, "version\r\n")
	line, err := rc.reply.ReadSimple()
	if err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("version reply = %q, %v", line, err)
	}
}

func TestTouch(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "touch a 0\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "TOUCHED" {
		t.Fatalf("touch reply = %q", line)
	}
	rc.send(t, "touch zz 0\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_FOUND" {
		t.Fatalf("touch miss reply = %q", line)
	}
}

func TestClientErrorOnBadCommand(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "nonsense\r\n")
	if _, err := rc.reply.ReadSimple(); err == nil {
		t.Fatal("want an error reply for unknown command")
	}
}

func TestQuitClosesConnection(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "quit\r\n")
	_ = rc.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := rc.nc.Read(buf); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer nc.Close()
			reply := memproto.NewReplyReader(nc)
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if _, err := nc.Write(memproto.FormatSet(key, 0, 0, []byte("v"), false)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if line, err := reply.ReadSimple(); err != nil || line != "STORED" {
					t.Errorf("set reply = %q, %v", line, err)
					return
				}
				if _, err := nc.Write(memproto.FormatGet([]string{key})); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				values, err := reply.ReadValues()
				if err != nil || string(values[key]) != "v" {
					t.Errorf("get = %v, %v", values, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCloseIdempotent(t *testing.T) {
	s := newTestServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDisconnectsClients(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = rc.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := rc.nc.Read(buf); err == nil {
		t.Fatal("connection survived server close")
	}
}
