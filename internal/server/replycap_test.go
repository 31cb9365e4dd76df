package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/memproto"
)

func newBigServer(t *testing.T) *Server {
	t.Helper()
	c, err := cache.New(32 * cache.PageSize)
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

// TestPipelinedRepliesPastCap: one pipelined write of single-key gets,
// multi-key gets and getses whose replies add up to many times the reply
// buffer's cap — values from 1 B through blocks just under and just past
// the cap to the largest value a page holds — comes back byte-exact and in
// request order, misses omitted.
func TestPipelinedRepliesPastCap(t *testing.T) {
	s := newBigServer(t)
	rc := dialRaw(t, s.Addr())

	keys := []string{"tiny", "small", "mid", "undercap", "pastcap", "page"}
	sizes := []int{
		1, 700, 40 << 10,
		memproto.MaxReplyBuffer - 200, memproto.MaxReplyBuffer + 1,
		memproto.MaxValueLen - cache.ItemOverhead - len("page"), // fills a whole page
	}
	values := make(map[string][]byte)
	for i, key := range keys {
		values[key] = bytes.Repeat([]byte{byte('a' + i)}, sizes[i])
		rc.send(t, fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", key, i, sizes[i], values[key]))
		if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
			t.Fatalf("set %s (%d bytes) = %q, %v", key, sizes[i], line, err)
		}
	}
	casOf, err := func() (map[string]memproto.ValueCAS, error) {
		rc.send(t, "gets tiny small mid undercap pastcap page\r\n")
		return rc.reply.ReadValuesCAS()
	}()
	if err != nil || len(casOf) != len(keys) {
		t.Fatalf("gets = %d blocks, %v", len(casOf), err)
	}

	var req, want bytes.Buffer
	block := func(i int, withCAS bool) {
		key := keys[i]
		fmt.Fprintf(&want, "VALUE %s %d %d", key, i, sizes[i])
		if withCAS {
			fmt.Fprintf(&want, " %d", casOf[key].CAS)
		}
		fmt.Fprintf(&want, "\r\n%s\r\n", values[key])
	}
	for round := 0; round < 2; round++ {
		for i, key := range keys {
			fmt.Fprintf(&req, "get %s\r\n", key)
			block(i, false)
			want.WriteString("END\r\n")
		}
		req.WriteString("gets miss-a")
		for i, key := range keys {
			fmt.Fprintf(&req, " %s", key)
			block(i, true)
		}
		req.WriteString(" miss-b\r\n")
		want.WriteString("END\r\n")
		req.WriteString("get")
		for i := len(keys) - 1; i >= 0; i-- {
			fmt.Fprintf(&req, " %s miss-%d", keys[i], i)
			block(i, false)
		}
		req.WriteString("\r\n")
		want.WriteString("END\r\n")
	}
	if want.Len() < 8*memproto.MaxReplyBuffer {
		t.Fatalf("replies add up to %d bytes, want several times the %d-byte cap", want.Len(), memproto.MaxReplyBuffer)
	}
	if _, err := rc.nc.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len())
	_ = rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(rc.nc, got); err != nil {
		t.Fatalf("reading %d reply bytes: %v", want.Len(), err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		at := 0
		for at < len(got) && got[at] == want.Bytes()[at] {
			at++
		}
		t.Fatalf("replies differ from byte %d of %d", at, want.Len())
	}
}

// countingConn counts the bytes read from a connection.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}

// TestPipelinedBacklogStaysAtCap: a client that pipelines tens of MB of
// get replies and reads none of them blocks the server's write on TCP
// backpressure, and the replies the server has rendered but not yet
// written stay within the reply buffer's cap: the backlog does not grow
// with the pipeline. The backlog is read over the wire, from a second
// connection's stats: get_hits rendered blocks against bytes_written,
// polled back to back until get_hits stops moving.
func TestPipelinedBacklogStaysAtCap(t *testing.T) {
	s := newBigServer(t)
	cc := &countingConn{Conn: dialRaw(t, s.Addr()).nc}
	ctl := memproto.NewReplyReader(cc)
	value := bytes.Repeat([]byte{'v'}, 1000)
	if _, err := fmt.Fprintf(cc, "set v 0 0 %d\r\n%s\r\n", len(value), value); err != nil {
		t.Fatal(err)
	}
	if line, err := ctl.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("set = %q, %v", line, err)
	}
	stats := func() (hits, written int) {
		t.Helper()
		before := cc.n // every byte written to this connection before the stats reply
		if _, err := io.WriteString(cc, "stats\r\n"); err != nil {
			t.Fatal(err)
		}
		st, err := ctl.ReadStats()
		if err != nil {
			t.Fatal(err)
		}
		hits, _ = strconv.Atoi(st["get_hits"])
		written, _ = strconv.Atoi(st["bytes_written"])
		return hits, written - before
	}

	const perGet, gets = 10, 3000 // 30 MB of replies: far past the socket buffers
	line := []byte("get" + string(bytes.Repeat([]byte(" v"), perGet)) + "\r\n")
	hog := dialRaw(t, s.Addr())
	go func() { _, _ = hog.nc.Write(bytes.Repeat(line, gets)) }()

	blockLen := len(fmt.Sprintf("VALUE v 0 %d\r\n\r\n", len(value))) + len(value)
	deadline := time.Now().Add(10 * time.Second)
	// Blocked: get_hits unchanged over this many stats round trips in a
	// row, each of which the server answers on another goroutine.
	const steadyPolls = 200
	prevHits, steady := -1, 0
	for steady < steadyPolls {
		if time.Now().After(deadline) {
			t.Fatal("the server never blocked on the unread replies")
		}
		hits, written := stats()
		if hits >= perGet*gets {
			t.Fatalf("the server rendered all %d blocks without the client reading", hits)
		}
		if hits == prevHits {
			steady++
		} else {
			prevHits, steady = hits, 0
		}
		rendered := hits*blockLen + hits/perGet*len("END\r\n")
		if backlog := rendered - written; backlog > memproto.MaxReplyBuffer {
			t.Fatalf("%d reply bytes rendered but unwritten, cap %d", backlog, memproto.MaxReplyBuffer)
		}
	}

	// Reading drains the pipeline: every reply arrives, in order.
	_ = hog.nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	for g := 0; g < gets; g++ {
		n := 0
		err := hog.reply.ReadValuesFunc(func(key string, _ uint32, v []byte, _ uint64) error {
			if key != "v" || !bytes.Equal(v, value) {
				return fmt.Errorf("block %q of %d bytes", key, len(v))
			}
			n++
			return nil
		})
		if err != nil || n != perGet {
			t.Fatalf("get %d: %d blocks, %v", g, n, err)
		}
	}
}
