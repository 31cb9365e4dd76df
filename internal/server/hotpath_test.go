package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/hotkey"
	"repro/internal/memproto"
)

// TestPipelinedMixedCommands writes dozens of mixed commands — noreply
// stores, plain stores, single- and multi-key gets, incr, delete, touch,
// version — in ONE TCP write and asserts the full response stream arrives
// byte-exact and in order. This exercises the flush-coalescing path: the
// server buffers all responses while pipelined requests remain queued.
func TestPipelinedMixedCommands(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	var req, want bytes.Buffer
	const n = 12
	for i := 0; i < n; i++ {
		// Stored silently, flags echo back on the get below.
		fmt.Fprintf(&req, "set p%d %d 0 2 noreply\r\nv%d\r\n", i, i+100, i%10)
		fmt.Fprintf(&req, "get p%d\r\n", i)
		fmt.Fprintf(&want, "VALUE p%d %d 2\r\nv%d\r\nEND\r\n", i, i+100, i%10)
	}
	// One multi-get spanning every key plus two misses, responses in
	// request order.
	req.WriteString("get miss-a")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, " p%d", i)
	}
	req.WriteString(" miss-b\r\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "VALUE p%d %d 2\r\nv%d\r\n", i, i+100, i%10)
	}
	want.WriteString("END\r\n")

	req.WriteString("set ctr 0 0 1\r\n5\r\n")
	want.WriteString("STORED\r\n")
	req.WriteString("incr ctr 3\r\n")
	want.WriteString("8\r\n")
	req.WriteString("decr ctr 100\r\n")
	want.WriteString("0\r\n")
	req.WriteString("touch p0 100\r\n")
	want.WriteString("TOUCHED\r\n")
	req.WriteString("delete p0\r\n")
	want.WriteString("DELETED\r\n")
	req.WriteString("delete p0 noreply\r\n")
	req.WriteString("get p0\r\n")
	want.WriteString("END\r\n")
	req.WriteString("version\r\n")
	want.WriteString("VERSION " + Version + "\r\n")

	if _, err := rc.nc.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, want.Len())
	_ = rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(rc.nc, got); err != nil {
		t.Fatalf("reading %d response bytes: %v (got %q so far)", want.Len(), err, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("pipelined responses out of order or wrong:\n got: %q\nwant: %q", got, want.Bytes())
	}
}

// TestBadLineResync covers the malformed-command satellite: a bad line (or
// a bad storage header with a parseable byte count) answers CLIENT_ERROR
// and the connection keeps serving, like real memcached.
func TestBadLineResync(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "set k 0 0 1\r\nx\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("set reply = %q, %v", line, err)
	}

	// Unknown command: error reply, then normal service.
	rc.send(t, "frobnicate now\r\nget k\r\n")
	if _, err := rc.reply.ReadSimple(); err == nil {
		t.Fatal("want CLIENT_ERROR for bad command")
	}
	values, err := rc.reply.ReadValues()
	if err != nil || string(values["k"]) != "x" {
		t.Fatalf("get after bad line = %v, %v", values, err)
	}

	// Bad storage header with a parseable byte count: the 5-byte body is
	// swallowed, not misread as commands.
	rc.send(t, "set k bad-flags 0 5\r\nhello\r\nget k\r\n")
	if _, err := rc.reply.ReadSimple(); err == nil {
		t.Fatal("want CLIENT_ERROR for bad storage line")
	}
	values, err = rc.reply.ReadValues()
	if err != nil || string(values["k"]) != "x" {
		t.Fatalf("get after bad storage line = %v, %v", values, err)
	}
}

// TestFlagsEchoOverWire covers the flags satellite at the protocol level:
// VALUE replies carry the stored flags, not a hardcoded 0.
func TestFlagsEchoOverWire(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "set flagged 54321 0 3\r\nabc\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("set reply = %q, %v", line, err)
	}
	rc.send(t, "get flagged\r\n")
	raw := readRawValueLine(t, rc)
	if raw != "VALUE flagged 54321 3" {
		t.Fatalf("VALUE line = %q, want flags 54321", raw)
	}
	// gets must echo them too, with the CAS token appended.
	rc.send(t, "gets flagged\r\n")
	raw = readRawValueLine(t, rc)
	if !strings.HasPrefix(raw, "VALUE flagged 54321 3 ") {
		t.Fatalf("gets VALUE line = %q, want flags 54321", raw)
	}
}

// readRawValueLine reads one VALUE header line then consumes the value
// block and END terminator.
func readRawValueLine(t *testing.T, rc *rawConn) string {
	t.Helper()
	var header string
	err := rc.reply.ReadValuesFunc(func(key string, flags uint32, value []byte, casToken uint64) error {
		if casToken != 0 {
			header = fmt.Sprintf("VALUE %s %d %d %d", key, flags, len(value), casToken)
		} else {
			header = fmt.Sprintf("VALUE %s %d %d", key, flags, len(value))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return header
}

// TestConnectionStats covers the new wire counters: connection counts and
// bytes in/out must show up in `stats`.
func TestConnectionStats(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set a 0 0 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "stats\r\n")
	stats, err := rc.reply.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["curr_connections"] != "1" || stats["total_connections"] != "1" {
		t.Fatalf("connection stats = curr %s / total %s, want 1/1",
			stats["curr_connections"], stats["total_connections"])
	}
	if stats["bytes_read"] == "0" || stats["bytes_read"] == "" {
		t.Fatalf("bytes_read = %q, want > 0", stats["bytes_read"])
	}
	if stats["bytes_written"] == "0" || stats["bytes_written"] == "" {
		t.Fatalf("bytes_written = %q, want > 0", stats["bytes_written"])
	}
}

// hotPathHarness drives the parser → handle → reply-writer pipeline
// in-process (no sockets), exactly as serveConn wires it, so allocation
// behavior can be measured deterministically.
type hotPathHarness struct {
	s  *Server
	st *connState
	r  *bytes.Reader
}

func newHotPathHarness(t testing.TB, opts ...cache.Option) *hotPathHarness {
	c, err := cache.New(16*cache.PageSize, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := &hotPathHarness{
		s:  &Server{cache: c},
		st: connStatePool.Get().(*connState),
		r:  bytes.NewReader(nil),
	}
	h.st.out = countingWriter{w: io.Discard, n: new(atomic.Uint64)}
	h.st.rw.Reset(&h.st.out)
	h.st.parser.Reset(h.r)
	t.Cleanup(func() {
		h.st.in = countingReader{}
		h.st.out = countingWriter{}
		connStatePool.Put(h.st)
	})
	return h
}

// serve parses and handles every request in payload, then flushes the
// replies as serveConn does once the input has drained.
func (h *hotPathHarness) serve(t testing.TB, payload []byte) {
	h.r.Reset(payload)
	h.st.parser.Reset(h.r)
	for h.st.parser.Buffered() > 0 || h.r.Len() > 0 {
		req, err := h.st.parser.Next()
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := h.s.handle(req, h.st); err != nil {
			t.Fatalf("handle: %v", err)
		}
	}
	if err := h.st.rw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// pipelinedBatch is the "pipelined multi-get" case: 16 gets of 8 keys in
// one payload, as pipelined_multiget sends them, over values from 1 B to
// past the reply buffer's cap. sets stores the keys, under prefix.
func pipelinedBatch(prefix string) (sets, batch []byte) {
	sizes := []int{1, 64, 700, 3000, 8192, 20000, 60000, memproto.MaxReplyBuffer + 4096}
	for i, size := range sizes {
		sets = fmt.Appendf(sets, "set %sbatch%d 0 0 %d\r\n%s\r\n", prefix, i, size, bytes.Repeat([]byte{'x'}, size))
	}
	for g := 0; g < 16; g++ {
		batch = append(batch, "get"...)
		for k := range sizes {
			batch = fmt.Appendf(batch, " %sbatch%d", prefix, (g+k)%len(sizes))
		}
		batch = append(batch, "\r\n"...)
	}
	return sets, batch
}

// TestHotPathAllocs is the alloc-regression gate wired into `make check`:
// after warmup, serving single-key get and set performs ZERO heap
// allocations per request, and so do replace, touch, add, incr and a cas
// hit.
func TestHotPathAllocs(t *testing.T) {
	h := newHotPathHarness(t)
	setReq := []byte("set hot 11 0 5\r\nhello\r\n")
	getReq := []byte("get hot\r\n")
	getsReq := []byte("gets hot\r\n")
	multiReq := []byte("get hot hot hot miss\r\n")
	batchSets, batchReq := pipelinedBatch("")
	h.serve(t, batchSets)
	h.serve(t, []byte("set ctr 0 0 1\r\n0\r\nset tail 0 0 1\r\nx\r\n"))

	// Warmup: insert the key and grow every scratch to steady-state shape.
	for i := 0; i < 3; i++ {
		h.serve(t, setReq)
		h.serve(t, getReq)
		h.serve(t, getsReq)
		h.serve(t, multiReq)
		h.serve(t, batchReq)
	}

	for _, tc := range []struct {
		name    string
		payload []byte
		max     float64
	}{
		{"set", setReq, 0},
		{"get", getReq, 0},
		{"gets", getsReq, 0},
		{"multi-get", multiReq, 0},
		{"pipelined multi-get", batchReq, 0},
		// Every client write goes through set's path and passes the
		// parser's key through to the cache. Two allocate once: append
		// builds the new value, and delete's cache call takes a string
		// key.
		{"replace", []byte("replace hot 11 0 5\r\nhello\r\n"), 0},
		{"touch", []byte("touch hot 0\r\n"), 0},
		{"add existing", []byte("add hot 11 0 5\r\nhello\r\n"), 0},
		{"append", []byte("append tail 0 0 1\r\nx\r\n"), 1},
		{"incr", []byte("incr ctr 1\r\n"), 0},
		{"delete", []byte("set gone 0 0 1\r\nx\r\ndelete gone\r\n"), 1},
	} {
		n := testing.AllocsPerRun(200, func() { h.serve(t, tc.payload) })
		t.Logf("%s: %.1f allocs/op (budget %.0f)", tc.name, n, tc.max)
		if n > tc.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", tc.name, n, tc.max)
		}
	}

	// A cas hit: each request carries the token the previous one left,
	// the newest the cache issued once hot is stored last.
	h.serve(t, setReq)
	_, _, token, _ := h.s.cache.GetInto([]byte("hot"), nil)
	cas := make([][]byte, 202)
	for i := range cas {
		cas[i] = fmt.Appendf(nil, "cas hot 11 0 5 %d\r\nhello\r\n", token+uint64(i))
	}
	next := 0
	if n := testing.AllocsPerRun(200, func() { h.serve(t, cas[next]); next++ }); n > 0 {
		t.Errorf("cas hit: %.1f allocs/op, want 0", n)
	}
	if _, _, got, _ := h.s.cache.GetInto([]byte("hot"), nil); got != token+uint64(next) {
		t.Errorf("after %d cas requests the token is %d, want %d: not every cas hit", next, got, token+uint64(next))
	}
}

// TestHotPathAllocsWithTenancy re-runs the alloc gate on a '/'-prefix node
// serving a named tenant's keys with sampling armed, as an
// arbiter-supervised node runs it: prefix resolution, per-tenant stats, and
// the access-sample append must all stay allocation-free.
func TestHotPathAllocsWithTenancy(t *testing.T) {
	h := newHotPathHarness(t, cache.WithTenantPrefix('/'))
	id, err := h.s.cache.RegisterTenant("acme", cache.TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cache.NewArbiter(h.s.cache, cache.ArbiterConfig{}) // arms sampling

	setReq := []byte("set acme/hot 11 0 5\r\nhello\r\n")
	getReq := []byte("get acme/hot\r\n")
	getsReq := []byte("gets acme/hot\r\n")
	multiReq := []byte("get acme/hot acme/hot acme/hot acme/miss\r\n")
	batchSets, batchReq := pipelinedBatch("acme/")
	h.serve(t, batchSets)
	for i := 0; i < 3; i++ {
		h.serve(t, setReq)
		h.serve(t, getReq)
		h.serve(t, getsReq)
		h.serve(t, multiReq)
		h.serve(t, batchReq)
	}
	if st := h.s.cache.TenantStats()[id]; st.Items != 9 || st.Hits == 0 {
		t.Fatalf("acme/hot not served from tenant acme: %+v", st)
	}

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"set", setReq},
		{"get", getReq},
		{"gets", getsReq},
		{"multi-get", multiReq},
		{"pipelined multi-get", batchReq},
	} {
		if n := testing.AllocsPerRun(200, func() { h.serve(t, tc.payload) }); n > 0 {
			t.Errorf("%s with tenancy: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}

// TestHotPathAllocsWithSketch re-runs the alloc gate with hot-key
// detection enabled: the sampled SpaceSaving sketch must not add a single
// allocation to get/gets/set/multi-get. Monitored keys are map-index
// lookups (the []byte→string conversion is compiler-elided); only
// first-time admission of a key materializes a string, which the warmup
// absorbs.
func TestHotPathAllocsWithSketch(t *testing.T) {
	h := newHotPathHarness(t)
	h.s.SetHotKeys(hotkey.New("bench-node", h.s.cache, nil, hotkey.Config{
		Capacity:   64,
		SampleRate: 8, // sample aggressively so the gate trips within AllocsPerRun's window
	}))
	setReq := []byte("set hot 11 0 5\r\nhello\r\n")
	getReq := []byte("get hot\r\n")
	getsReq := []byte("gets hot\r\n")
	multiReq := []byte("get hot hot hot miss\r\n")
	batchSets, batchReq := pipelinedBatch("")
	h.serve(t, batchSets)

	// Warmup runs past one full sampling period so every key is admitted
	// into the sketch before counting begins.
	for i := 0; i < 16; i++ {
		h.serve(t, setReq)
		h.serve(t, getReq)
		h.serve(t, getsReq)
		h.serve(t, multiReq)
		h.serve(t, batchReq)
	}

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"set", setReq},
		{"get", getReq},
		{"gets", getsReq},
		{"multi-get", multiReq},
		{"pipelined multi-get", batchReq},
	} {
		if n := testing.AllocsPerRun(200, func() { h.serve(t, tc.payload) }); n > 0 {
			t.Errorf("%s with sketch: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}
