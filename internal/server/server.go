// Package server runs one Memcached node over TCP: the memproto ASCII
// protocol front end backed by a cache.Cache, mirroring the paper's
// modified memcached 1.4.x node (Section V-A1). The node's ElMem Agent is
// served separately by package agentrpc.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
	"repro/internal/hotkey"
	"repro/internal/memproto"
	"repro/internal/metrics"
)

// Version is the reported server version string.
const Version = "elmem-memcached/1.4.25-repro"

// Server is one node's Memcached TCP front end.
type Server struct {
	cache *cache.Cache
	ln    net.Listener
	log   *log.Logger

	// hot is the node's hot-key replicator, nil when detection is off. An
	// atomic pointer because the cluster installs it after Listen (the
	// node's name is its bound address) while connections may already be
	// serving.
	hot atomic.Pointer[hotkey.Replicator]

	// ownership is the latest ownership table announced by the master, nil
	// until the node joins a cluster. Lease fills consult it to divert keys
	// that change owner mid-handover into the gutter pool.
	ownership atomic.Pointer[hashring.Table]

	// leases and gutter serve the lget/lset protocol. leaseCount and
	// gutterCount shadow their sizes so the get/set hot path can gate all
	// lease work behind one atomic load (zero when the feature is idle).
	leases      *leaseTable
	gutter      *gutterPool
	leaseCount  atomic.Int64
	gutterCount atomic.Int64

	leaseGranted  atomic.Uint64
	leaseFilled   atomic.Uint64
	leaseRejected atomic.Uint64
	gutterHits    atomic.Uint64
	gutterFills   atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// draining flips when Shutdown begins: each connection finishes the
	// pipelined requests it has already buffered, flushes, and closes
	// cleanly instead of being torn down mid-reply. drainBy, written
	// before draining flips, is when the drain force-closes what is left.
	draining atomic.Bool
	drainBy  time.Time

	// Wire counters, exposed through `stats` like memcached's
	// curr_connections / total_connections / bytes_read / bytes_written.
	connsTotal   atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64

	stopCrawler chan struct{}
	wg          sync.WaitGroup
}

// Option configures a Server.
type Option interface {
	apply(*options)
}

type options struct {
	logger        *log.Logger
	crawlInterval time.Duration
}

type loggerOption struct{ l *log.Logger }

func (o loggerOption) apply(opts *options) { opts.logger = o.l }

// WithLogger directs server diagnostics to l (default: discarded).
func WithLogger(l *log.Logger) Option { return loggerOption{l: l} }

type crawlerOption time.Duration

func (o crawlerOption) apply(opts *options) { opts.crawlInterval = time.Duration(o) }

// WithExpiryCrawler runs the cache's expired-item crawler (memcached's
// LRU crawler) every interval until the server closes.
func WithExpiryCrawler(interval time.Duration) Option { return crawlerOption(interval) }

// SetHotKeys installs (or replaces) the hot-key replicator on a running
// server.
func (s *Server) SetHotKeys(rep *hotkey.Replicator) { s.hot.Store(rep) }

// OwnershipChanged installs a newer ownership table,
// implementing core.OwnershipListener. Stale announcements (version at or
// below the installed one) are ignored so delivery order across listeners
// cannot regress routing.
func (s *Server) OwnershipChanged(t *hashring.Table) {
	if t == nil {
		return
	}
	for {
		cur := s.ownership.Load()
		if cur != nil && cur.Version() >= t.Version() {
			return
		}
		if s.ownership.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Listen starts serving the cache on addr ("127.0.0.1:0" picks a free
// port). The caller must Close the server to stop it and join its
// goroutines.
func Listen(addr string, c *cache.Cache, opts ...Option) (*Server, error) {
	if c == nil {
		return nil, errors.New("server: nil cache")
	}
	o := options{logger: log.New(io.Discard, "", 0)}
	for _, opt := range opts {
		opt.apply(&o)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{
		cache:       c,
		ln:          ln,
		log:         o.logger,
		conns:       make(map[net.Conn]struct{}),
		stopCrawler: make(chan struct{}),
	}
	s.leases = newLeaseTable(defaultLeaseTTL, defaultLeaseMax, c.Now, &s.leaseCount)
	s.gutter = newGutterPool(defaultGutterTTL, defaultGutterItems, defaultGutterBytes, c.Now, &s.gutterCount)
	s.wg.Add(1)
	go s.acceptLoop()
	if o.crawlInterval > 0 {
		s.wg.Add(1)
		go s.crawlLoop(o.crawlInterval)
	}
	return s, nil
}

// crawlLoop periodically reclaims expired items until Close.
func (s *Server) crawlLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n := s.cache.CrawlExpired(); n > 0 {
				s.log.Printf("server: crawler reclaimed %d expired items", n)
			}
		case <-s.stopCrawler:
			return
		}
	}
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Cache exposes the backing cache (the Agent shares it).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Close stops accepting, closes every connection, and joins all goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.stopCrawler)
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// defaultDrainTimeout bounds Shutdown's wait for idle or slow
// connections when the caller's context carries no earlier deadline.
const defaultDrainTimeout = 5 * time.Second

// drainIdleGrace is how long the drain waits on a connection it found
// idle, for request bytes the client sent before the drain began.
const drainIdleGrace = 20 * time.Millisecond

// drainDiscardTimeout bounds the post-drain read that absorbs request
// bytes a client may still have in flight when its connection closes.
const drainDiscardTimeout = 250 * time.Millisecond

// Shutdown stops accepting and drains in-flight connections: each one
// keeps serving the pipelined input it has queued, flushes its
// replies, half-closes, and discards any late request bytes so the
// client reads every reply followed by a clean EOF — closing with
// unread bytes queued would send a RST that can destroy replies still
// sitting in the client's kernel buffer. Connections that have not
// drained when ctx expires (or after defaultDrainTimeout) are
// force-closed. Shutdown then joins all server goroutines, so when it
// returns the cache has quiesced and is safe to snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.drainBy = time.Now().Add(defaultDrainTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(s.drainBy) {
		s.drainBy = d
	}
	s.draining.Store(true)
	close(s.stopCrawler)
	err := s.ln.Close()

	// A draining connection exits at its next flush boundary, or once the
	// requests of its last read are answered. A read deadline in the past
	// wakes every read at once: an idle connection then closes, and one
	// part-way through a request reads on until drainBy (see
	// countingReader).
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// drainClose gives conn the graceful goodbye: half-close the write side
// so the client sees FIN after the final reply, then absorb whatever the
// client was still sending (bounded) before the full close. A connection
// the drain found idle was sending nothing, so it closes at once.
func drainClose(conn net.Conn, idle bool) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	if idle {
		return
	}
	_ = conn.SetReadDeadline(time.Now().Add(drainDiscardTimeout))
	_, _ = io.Copy(io.Discard, conn)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

// countingReader forwards reads to the connection, adding byte counts to
// the serving server's counter. It is repointed on every pool checkout so
// the pooled state can move between servers.
//
// Once the server drains, the first read that sees it is the connection's
// last: every later one reports io.EOF, so the parser answers the whole
// requests it holds and stops, even for a client that never pauses long
// enough to leave a flush boundary. The drain wakes a blocked read with a
// deadline in the past, and drainRead decides how long a read may still
// wait.
type countingReader struct {
	conn    net.Conn
	s       *Server
	last    bool // a read has seen the drain
	idle    bool // no byte of the next request has been read
	idleEOF bool // the drain found the connection idle
}

func (cr *countingReader) Read(p []byte) (n int, err error) {
	if cr.last {
		return 0, io.EOF
	}
	cr.last = cr.s.draining.Load()
	if cr.last && cr.idle {
		n, err = cr.drainRead(p)
	} else if n, err = cr.conn.Read(p); n == 0 && errors.Is(err, os.ErrDeadlineExceeded) && cr.s.draining.Load() {
		n, err = cr.drainRead(p) // the drain woke this read
	}
	cr.idle = cr.idle && n == 0
	cr.s.bytesRead.Add(uint64(n))
	return n, err
}

// drainRead reads once the drain has begun. A connection part-way through
// a request reads on until the drain's deadline. One at a request boundary
// waits only drainIdleGrace, for request bytes the client sent before the
// drain began, and ends if none come. Input is checked with inputPending
// around that wait because a read whose deadline has passed returns
// without looking at the socket.
func (cr *countingReader) drainRead(p []byte) (int, error) {
	if cr.idle && !inputPending(cr.conn) {
		_ = cr.conn.SetReadDeadline(time.Now().Add(drainIdleGrace))
		n, err := cr.conn.Read(p)
		if n > 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			_ = cr.conn.SetReadDeadline(cr.s.drainBy)
			return n, err
		}
		if !inputPending(cr.conn) {
			cr.idleEOF = true
			return 0, io.EOF
		}
	}
	_ = cr.conn.SetReadDeadline(cr.s.drainBy)
	return cr.conn.Read(p)
}

// countingWriter is countingReader's write-side twin.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(uint64(n))
	return n, err
}

// connState is the pooled per-connection hot-path state: parser and reply
// writer (with their internal buffers), the counting stream adapters, and
// the get scratch. Pooling it means an accepted connection performs no
// steady-state allocations at all — buffers warmed by one connection are
// inherited by the next.
type connState struct {
	parser *memproto.Parser
	rw     *memproto.ReplyWriter
	in     countingReader
	out    countingWriter

	// val holds a value that could not be rendered in place: a gutter
	// hit, or a block too big for the reply buffer's room.
	val []byte

	// hotOps gates hot-key sketch sampling with a plain per-connection
	// counter (observe when hotOps&mask == 0): the sampled-out fast path
	// costs an increment and a branch, no shared atomics.
	hotOps uint64
}

var connStatePool = sync.Pool{
	New: func() any {
		st := &connState{}
		st.parser = memproto.NewParser(&st.in)
		st.rw = memproto.NewReplyWriter(&st.out)
		return st
	},
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	s.connsTotal.Add(1)

	st := connStatePool.Get().(*connState)
	st.in = countingReader{conn: conn, s: s}
	st.out = countingWriter{w: conn, n: &s.bytesWritten}
	st.parser.Reset(&st.in)
	st.rw.Reset(&st.out)
	defer func() {
		st.in = countingReader{}
		st.out = countingWriter{}
		connStatePool.Put(st)
	}()
	// Runs before dropConn's Close on every exit path during a drain, so
	// even a connection leaving through the read-deadline or quit paths
	// ends with FIN, not RST.
	defer func() {
		if s.draining.Load() {
			drainClose(conn, st.in.idleEOF)
		}
	}()

	parser, rw := st.parser, st.rw
	for {
		st.in.idle = parser.Buffered() == 0
		req, err := parser.Next()
		if err != nil {
			if memproto.IsRecoverable(err) {
				// The parser consumed the malformed request and is aligned on
				// the next line: report and keep serving, like real memcached.
				_ = rw.ClientError(err.Error())
				if parser.Buffered() == 0 {
					if rw.Flush() != nil {
						return
					}
				}
				continue
			}
			// A request cut short by the drain's last read gets no reply.
			if err != io.EOF && !st.in.last && (errors.Is(err, memproto.ErrProtocol) || errors.Is(err, memproto.ErrTooLarge)) {
				_ = rw.ClientError(err.Error())
			}
			_ = rw.Flush()
			return
		}
		if req.Command == memproto.CmdQuit {
			_ = rw.Flush()
			return
		}
		if err := s.handle(req, st); err != nil {
			s.log.Printf("server: handle: %v", err)
			return
		}
		// Flush coalescing: while more pipelined request bytes are already
		// buffered, keep accumulating responses and write them out in one
		// syscall when the input queue drains (see DESIGN.md).
		if parser.Buffered() == 0 {
			if err := rw.Flush(); err != nil {
				return
			}
			// Drain boundary: every request this connection had queued is
			// answered and flushed — the earliest moment it can close
			// without cutting a reply in half. One whose last read has
			// already seen the drain closes here; any other makes that
			// last read first (see countingReader), so request bytes the
			// client sent before the drain began are answered, not
			// dropped, even if they are still on their way.
			if s.draining.Load() && st.in.last {
				return
			}
		}
	}
}

// relativeExptimeLimit is memcached's 30-day boundary: exptimes at or
// below it are relative seconds, larger values are absolute Unix times.
const relativeExptimeLimit = 60 * 60 * 24 * 30

// expiryFromExptime converts a protocol exptime to an absolute deadline on
// the clock now, the served cache's, which checks it. Exptime 0 reads no
// clock.
func expiryFromExptime(exptime int64, now func() time.Time) time.Time {
	switch {
	case exptime == 0:
		return time.Time{}
	case exptime < 0:
		return now().Add(-time.Second) // already expired, memcached-style
	case exptime <= relativeExptimeLimit:
		return now().Add(time.Duration(exptime) * time.Second)
	default:
		return time.Unix(exptime, 0)
	}
}

// getKeys renders a VALUE block, with the CAS token when withCAS, for
// every resident key, in request order, and reports how many there were.
// Each block is rendered into the reply buffer under its shard lock, so
// its value's bytes are copied once between the cache arena and the
// socket; a block too big for the room left is copied into st.val and
// sent from there once the lock is released. gutter lets a miss of a
// single key fall back to the gutter pool, which may hold a lease fill
// parked while the key's owner changes.
func (s *Server) getKeys(st *connState, keys [][]byte, withCAS, gutter bool) (int, error) {
	if hot := s.hot.Load(); hot != nil {
		for _, key := range keys {
			if st.hotOps++; st.hotOps&hot.SampleMask() == 0 {
				hot.ObserveGet(key)
			}
		}
	}
	rw := st.rw
	hits, base, copied := 0, 0, -1
	var flags uint32
	var casToken uint64
	render := func(i int, f uint32, cas uint64, value []byte) bool {
		hits++
		if rw.AppendValue(keys[base+i], f, value, cas, withCAS) {
			return true
		}
		st.val, flags, casToken, copied = append(st.val[:0], value...), f, cas, base+i
		return false
	}
	for base < len(keys) {
		if err := rw.MakeRoom(); err != nil {
			return hits, err
		}
		copied = -1
		base += s.cache.GetFunc(keys[base:], render)
		if copied < 0 {
			continue
		}
		var err error
		if withCAS {
			err = rw.ValueCAS(keys[copied], flags, st.val, casToken)
		} else {
			err = rw.Value(keys[copied], flags, st.val)
		}
		if err != nil {
			return hits, err
		}
	}
	if hits == 0 && gutter && len(keys) == 1 && s.gutterCount.Load() != 0 {
		var hit bool
		if st.val, flags, hit = s.gutter.get(keys[0], st.val[:0]); hit {
			s.gutterHits.Add(1)
			return 1, rw.Value(keys[0], flags, st.val)
		}
	}
	return hits, nil
}

// handle executes one request and renders its response into st.rw. Keys
// are byte slices straight from the parser: the get arm renders values
// straight into the reply buffer, and every client write goes through
// write, so both serve without allocating.
func (s *Server) handle(req *memproto.Request, st *connState) error {
	rw := st.rw
	switch req.Command {
	case memproto.CmdGet, memproto.CmdGets:
		// Only get falls back to the gutter pool.
		if _, err := s.getKeys(st, req.Keys, req.Command == memproto.CmdGets, req.Command == memproto.CmdGet); err != nil {
			return err
		}
		return rw.End()

	case memproto.CmdSet, memproto.CmdAdd, memproto.CmdReplace, memproto.CmdAppend,
		memproto.CmdPrepend, memproto.CmdCas, memproto.CmdIncr, memproto.CmdDecr,
		memproto.CmdDelete, memproto.CmdTouch:
		// A write revokes the key's outstanding fill lease, so a fill read
		// before it cannot land over it. A touch leaves the value alone.
		if req.Command != memproto.CmdTouch && s.leaseCount.Load() != 0 {
			s.leases.invalidate(req.Keys[0])
		}
		return s.write(req, st)

	case memproto.CmdLeaseGet:
		// Lease get: a hit behaves like get; a miss hands out a fill token
		// (or 0 when another client already holds one) so a miss storm
		// costs the backing store a single load.
		key := req.Keys[0]
		if s.leases == nil {
			return rw.ServerError("leases unavailable")
		}
		hits, err := s.getKeys(st, req.Keys, false, true)
		if err != nil {
			return err
		}
		if hits == 0 {
			token := s.leases.grant(key)
			if token != 0 {
				s.leaseGranted.Add(1)
			}
			if err := rw.Lease(token); err != nil {
				return err
			}
		}
		return rw.End()

	case memproto.CmdLeaseSet:
		// Lease fill: only the current token holder may store, and fills
		// for a key that changes owner mid-handover park in the gutter pool
		// instead of the main cache (the migration stream delivers the
		// authoritative copy). A key whose owner does not change stores
		// normally: no stream will deliver it.
		key := req.Keys[0]
		if s.leases == nil || !s.leases.take(key, req.CAS) {
			s.leaseRejected.Add(1)
			if req.NoReply {
				return nil
			}
			return rw.NotStored()
		}
		s.leaseFilled.Add(1)
		if t := s.ownership.Load(); t != nil && t.InFlightHash(hashring.KeyHashBytes(key)) {
			s.gutter.set(key, req.Value, req.Flags)
			s.gutterFills.Add(1)
			if req.NoReply {
				return nil
			}
			return rw.Stored()
		}
		return s.write(req, st)

	case memproto.CmdStats:
		st := s.cache.Stats()
		gc := metrics.ReadGC()
		s.mu.Lock()
		currConns := len(s.conns)
		s.mu.Unlock()
		for _, p := range []struct {
			name  string
			value uint64
		}{
			{"curr_connections", uint64(currConns)},
			{"total_connections", s.connsTotal.Load()},
			{"bytes_read", s.bytesRead.Load()},
			{"bytes_written", s.bytesWritten.Load()},
			{"get_hits", st.Hits},
			{"get_misses", st.Misses},
			{"cmd_set", st.Sets},
			{"evictions", st.Evictions},
			{"expired_unfetched", st.Expirations},
			// import_refused: migrated pairs the batch import dropped
			// because their slab class could get no chunk.
			{"import_refused", st.ImportRefused},
			{"curr_items", uint64(st.Items)},
			{"bytes", uint64(st.BytesUsed)},
			{"total_pages", uint64(st.MaxPages)},
			{"assigned_pages", uint64(st.AssignedPages)},
			// arena_bytes is the assigned pages; arena_touched_bytes is
			// the chunks ever written, which is what RSS follows — the
			// arena is mapped outside the Go heap, so heap_alloc_bytes
			// below no longer includes it.
			{"arena_bytes", uint64(st.ArenaBytes)},
			{"arena_touched_bytes", uint64(st.ArenaTouchedBytes)},
			// GC load of the whole process. The CPU fraction is scaled to
			// parts-per-million (stats values are integers on the wire).
			{"gc_cpu_ppm", uint64(gc.GCCPUFraction * 1e6)},
			{"gc_pause_total_ns", gc.PauseTotalNs},
			{"gc_cycles", uint64(gc.NumGC)},
			{"heap_objects", gc.HeapObjects},
			{"heap_alloc_bytes", gc.HeapAllocBytes},
			{"lease_granted", s.leaseGranted.Load()},
			{"lease_filled", s.leaseFilled.Load()},
			{"lease_rejected", s.leaseRejected.Load()},
			{"lease_outstanding", uint64(s.leaseCount.Load())},
			{"gutter_items", uint64(s.gutterCount.Load())},
			{"gutter_hits", s.gutterHits.Load()},
			{"gutter_fills", s.gutterFills.Load()},
			{"gutter_evictions", gutterEvictions(s.gutter)},
			{"ownership_version", ownershipVersion(s.ownership.Load())},
		} {
			if err := rw.StatUint(p.name, p.value); err != nil {
				return err
			}
		}
		if hot := s.hot.Load(); hot != nil {
			cs := hot.Snapshot()
			for _, p := range []struct {
				name  string
				value uint64
			}{
				{"hotkey_promotions", uint64(cs.Promotions)},
				{"hotkey_demotions", uint64(cs.Demotions)},
				{"hotkey_replica_pushes", uint64(cs.ReplicaPushes)},
				{"hotkey_push_errors", uint64(cs.PushErrors)},
				{"hotkey_replica_reads", uint64(cs.ReplicaReads)},
				{"hotkey_promoted", uint64(cs.Promoted)},
				{"hotkey_replica_held", uint64(cs.ReplicaHeld)},
				{"hotkey_table_version", cs.TableVersion},
			} {
				if err := rw.StatUint(p.name, p.value); err != nil {
					return err
				}
			}
		}
		for _, sl := range st.Slabs {
			prefix := "slab" + strconv.Itoa(sl.ClassID) + ":"
			if err := rw.StatUint(prefix+"chunk_size", uint64(sl.ChunkSize)); err != nil {
				return err
			}
			if err := rw.StatUint(prefix+"pages", uint64(sl.Pages)); err != nil {
				return err
			}
			if err := rw.StatUint(prefix+"items", uint64(sl.Items)); err != nil {
				return err
			}
			if err := rw.StatUint(prefix+"arena_bytes", uint64(sl.ArenaBytes)); err != nil {
				return err
			}
		}
		// Per-tenant rows appear once a tenant beyond the default namespace
		// is registered, keyed by name (tenant 0 reports as "default").
		if tstats := s.cache.TenantStats(); len(tstats) > 1 {
			for _, ts := range tstats {
				name := ts.Name
				if ts.ID == 0 {
					name = "default"
				}
				prefix := "tenant:" + name + ":"
				for _, p := range []struct {
					name  string
					value uint64
				}{
					{"get_hits", ts.Hits},
					{"get_misses", ts.Misses},
					{"cmd_set", ts.Sets},
					{"evictions", ts.Evictions},
					{"expired_unfetched", ts.Expirations},
					{"curr_items", uint64(ts.Items)},
					{"bytes", uint64(ts.Bytes)},
					{"pages", uint64(ts.Pages)},
					{"reserved_pages", uint64(ts.Reserved)},
					{"quota_pages", uint64(ts.Quota)},
					{"max_pages", uint64(ts.MaxPages)},
					{"pages_stolen", ts.PagesStolen},
				} {
					if err := rw.StatUint(prefix+p.name, p.value); err != nil {
						return err
					}
				}
			}
		}
		// Per-shard counters make lock-stripe imbalance observable from the
		// wire, mirroring memcached's stats conns/threads breakdowns.
		for _, sh := range st.Shards {
			prefix := "shard" + strconv.Itoa(sh.Shard) + ":"
			for _, p := range []struct {
				name  string
				value uint64
			}{
				{"items", uint64(sh.Items)},
				{"get_hits", sh.Hits},
				{"get_misses", sh.Misses},
				{"evictions", sh.Evictions},
			} {
				if err := rw.StatUint(prefix+p.name, p.value); err != nil {
					return err
				}
			}
		}
		return rw.End()

	case memproto.CmdHotKeys:
		hot := s.hot.Load()
		if hot == nil {
			if err := rw.HotKeysHeader(0); err != nil {
				return err
			}
			return rw.End()
		}
		version, entries := hot.Table()
		if err := rw.HotKeysHeader(version); err != nil {
			return err
		}
		for _, e := range entries {
			if err := rw.HotKeyEntry(e.Key, e.Nodes); err != nil {
				return err
			}
		}
		return rw.End()

	case memproto.CmdHKPut:
		// Replica push from a home node: store the copy and mark it
		// replica-held so migration treats it as non-owned.
		err := s.cache.SetBytes(req.Keys[0], req.Value, req.Flags,
			expiryFromExptime(req.Exptime, s.cache.Now))
		if hot := s.hot.Load(); hot != nil && err == nil {
			hot.MarkReplica(req.Keys[0])
		}
		if req.NoReply {
			return nil
		}
		if err != nil {
			return rw.ServerError(err.Error())
		}
		return rw.Stored()

	case memproto.CmdHKDel:
		// Delete the copy only while it is still marked replica-held: a
		// stale invalidation from a previous home must not destroy an item
		// this node has since come to own (e.g. after a migration).
		deleted := false
		if hot := s.hot.Load(); hot == nil || hot.DropReplica(req.Keys[0]) {
			deleted = s.cache.Delete(string(req.Keys[0])) == nil
		}
		if req.NoReply {
			return nil
		}
		if deleted {
			return rw.Deleted()
		}
		return rw.NotFound()

	case memproto.CmdFlushAll:
		s.cache.FlushAll()
		if req.NoReply {
			return nil
		}
		return rw.OK()

	case memproto.CmdVersion:
		return rw.Version(Version)

	default:
		return rw.Error()
	}
}

// write is the one path a client write takes into the node, after its
// command's gate: the exptime becomes a deadline on the cache's clock, the
// command's cache call runs, the hot-key detector samples the key and the
// key's replicas are brought to the home's state whatever the outcome, and
// the outcome becomes the reply.
func (s *Server) write(req *memproto.Request, st *connState) error {
	key := req.Keys[0]
	expiry := expiryFromExptime(req.Exptime, s.cache.Now)
	var (
		n   uint64
		err error
	)
	switch req.Command {
	case memproto.CmdAdd:
		err = s.cache.Add(key, req.Value, req.Flags, expiry)
	case memproto.CmdReplace:
		err = s.cache.Replace(key, req.Value, req.Flags, expiry)
	case memproto.CmdAppend:
		err = s.cache.Append(key, req.Value)
	case memproto.CmdPrepend:
		err = s.cache.Prepend(key, req.Value)
	case memproto.CmdCas:
		err = s.cache.CompareAndSwap(key, req.Value, req.Flags, expiry, req.CAS)
	case memproto.CmdIncr:
		n, err = s.cache.Incr(key, req.Delta)
	case memproto.CmdDecr:
		n, err = s.cache.Decr(key, req.Delta)
	case memproto.CmdDelete:
		err = s.cache.Delete(string(key))
	case memproto.CmdTouch:
		err = s.cache.Touch(key, expiry)
	default: // set and a lease fill
		err = s.cache.SetBytes(key, req.Value, req.Flags, expiry)
	}
	if hot := s.hot.Load(); hot != nil {
		if st.hotOps++; st.hotOps&hot.SampleMask() == 0 {
			hot.ObserveWrite(key)
		}
		hot.AfterWrite(key)
	}
	rw := st.rw
	switch {
	case req.NoReply:
		return nil
	case err == nil:
		switch req.Command {
		case memproto.CmdIncr, memproto.CmdDecr:
			return rw.Number(n)
		case memproto.CmdDelete:
			return rw.Deleted()
		case memproto.CmdTouch:
			return rw.Touched()
		}
		return rw.Stored()
	case errors.Is(err, cache.ErrNotStored):
		return rw.NotStored()
	case errors.Is(err, cache.ErrExists):
		return rw.Exists()
	case errors.Is(err, cache.ErrNotFound):
		return rw.NotFound()
	case errors.Is(err, cache.ErrNotNumber):
		return rw.ClientError("cannot increment or decrement non-numeric value")
	}
	return rw.ServerError(err.Error())
}
