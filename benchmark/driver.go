package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/memproto"
	"repro/internal/server"
)

// target is the system under test: real nodes serving loopback TCP inside
// this process. Exactly one of srv and cl is set.
type target struct {
	srv *server.Server
	cl  *cluster.Cluster
}

// setup builds the nodes and preloads the whole keyspace coldest-first
// straight into the owning node's cache, so the hottest ranks are the most
// recently used and an oversized keyspace starts full and evicting.
func setup(in *inputs) (*target, error) {
	sp := in.sp
	t := &target{}
	route := func(string) (*cache.Cache, error) { return nil, errors.New("no route") }
	if sp.nodes == 1 {
		c, err := cache.New(sp.nodeMem)
		if err != nil {
			return nil, err
		}
		if t.srv, err = server.Listen("127.0.0.1:0", c); err != nil {
			return nil, err
		}
		route = func(string) (*cache.Cache, error) { return c, nil }
	} else {
		var err error
		if t.cl, err = cluster.StartLocal(cluster.Config{Nodes: sp.nodes, NodeMemory: sp.nodeMem}); err != nil {
			return nil, err
		}
		byName := make(map[string]*cache.Cache, sp.nodes)
		for _, name := range t.cl.Members() {
			if byName[name], err = t.cl.Node(name); err != nil {
				t.Close()
				return nil, err
			}
		}
		client := t.cl.Client()
		route = func(key string) (*cache.Cache, error) {
			owner, err := client.Owner(key)
			return byName[owner], err
		}
	}
	for r := int64(sp.keys) - 1; r >= 0; r-- {
		key := in.keys[r]
		c, err := route(key)
		if err == nil {
			err = c.SetBytes([]byte(key), in.value(uint64(r)), 0, time.Time{})
		}
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("preload %s: %w", key, err)
		}
	}
	return t, nil
}

// Close stops every node and joins its goroutines; it is safe on a
// partially built target.
func (t *target) Close() error {
	var err error
	if t.srv != nil {
		err = t.srv.Close()
	}
	if t.cl != nil {
		err = errors.Join(err, t.cl.Close())
	}
	return err
}

// addrs lists the cache addresses currently serving.
func (t *target) addrs() []string {
	if t.srv != nil {
		return []string{t.srv.Addr()}
	}
	return t.cl.Members()
}

// caches lists the node caches currently serving, in addrs order.
func (t *target) caches() []*cache.Cache {
	if t.srv != nil {
		return []*cache.Cache{t.srv.Cache()}
	}
	var out []*cache.Cache
	for _, name := range t.cl.Members() {
		if c, err := t.cl.Node(name); err == nil {
			out = append(out, c)
		}
	}
	return out
}

// windowLen is the slice of the measured phase over which one latency
// percentile is taken on the single-node workloads (scale_in_out slices by
// cycle instead). A run reports the median of its slices' percentiles: the
// host drifts between faster and slower regimes that last seconds, and a
// percentile pooled over the whole phase follows whatever share of it the
// slow regime happened to take.
const windowLen = 500 * time.Millisecond

// minWindowSamples keeps a slice's p95 honest: at least ten samples lie
// beyond it.
const minWindowSamples = 200

// recorder accumulates one driver goroutine's samples for one phase.
type recorder struct {
	start, end time.Time
	get, set   []uint32 // request latencies, nanoseconds
	marks      []int    // len(get) at the end of each slice

	attempted, failed int64 // ops: keys fetched or stored
	gets, hits, sets  int64 // keys
	ops               int64 // ops completed
}

// add files one completed request covering nops ops.
func (r *recorder) add(now time.Time, set bool, lat time.Duration, nops int) {
	if lat > math.MaxUint32 {
		lat = math.MaxUint32 // 4.3 s: far beyond any percentile reported
	}
	if set {
		r.set = append(r.set, uint32(lat))
	} else {
		r.get = append(r.get, uint32(lat))
	}
	r.ops += int64(nops)
	r.end = now
}

// mark ends the current slice.
func (r *recorder) mark() { r.marks = append(r.marks, len(r.get)) }

// firstByteReader notes when the first reply byte of a request arrives, so
// the traced run can split waiting for the server from decoding its reply.
type firstByteReader struct {
	r     io.Reader
	armed bool
	at    time.Time
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if f.armed {
		f.at, f.armed = time.Now(), false
	}
	return n, err
}

// rawConn is one closed-loop driver connection speaking the text protocol
// with memproto's own client-side codec.
type rawConn struct {
	in    *inputs
	nc    net.Conn
	first *firstByteReader
	rr    *memproto.ReplyReader
	keys  []string // encode scratch
	req   uint32

	// verification state of the reply being read
	want   []uint64
	cursor int
	hits   int
}

func dialRaw(in *inputs, addr string) (*rawConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &rawConn{in: in, nc: nc, first: &firstByteReader{r: nc}, keys: make([]string, 0, in.sp.multiget)}
	c.rr = memproto.NewReplyReader(c.first)
	return c, nil
}

var errWrongValue = errors.New("value differs from store.Dataset")

// verify checks one VALUE block: its key must be the next unanswered key
// of the request (the server answers in request order, omitting misses) and
// its bytes must be the dataset's.
func (c *rawConn) verify(key string, _ uint32, value []byte, _ uint64) error {
	rank, err := c.in.ds.RankOf(key)
	for err == nil && c.cursor < len(c.want) && c.want[c.cursor] != rank {
		c.cursor++
	}
	if err != nil || c.cursor == len(c.want) {
		return fmt.Errorf("unexpected key %q in reply", key)
	}
	c.cursor++
	if !bytes.Equal(value, c.in.value(rank)) {
		return fmt.Errorf("%w: key %s", errWrongValue, key)
	}
	c.hits++
	return nil
}

// readGet consumes one get reply, verifying it against the requested ranks.
func (c *rawConn) readGet(ranks []uint64) (hits int, err error) {
	c.want, c.cursor, c.hits = ranks, 0, 0
	err = c.rr.ReadValuesFunc(c.verify)
	return c.hits, err
}

// drive runs the closed loop until the deadline: write depth requests,
// read their replies, record, repeat. rec may be nil (warm-up); tr may be
// nil (tracing off). A request that errors ends the loop, counted failed.
func (c *rawConn) drive(ctx context.Context, st *stream, deadline time.Time, rec *recorder, tr *tracer) {
	sp := c.in.sp
	batchRanks := make([]uint64, 0, sp.depth*sp.multiget)
	sets := make([]bool, 0, sp.depth)
	var buf []byte
	for {
		t0 := time.Now()
		if !t0.Before(deadline) || ctx.Err() != nil {
			return
		}
		batchRanks, sets, buf = batchRanks[:0], sets[:0], buf[:0]
		for i := 0; i < sp.depth; i++ {
			set, ranks := st.next()
			sets = append(sets, set)
			batchRanks = append(batchRanks, ranks...)
			if sp.depth == 1 {
				buf = c.in.encode(set, ranks, c.keys)
			} else {
				buf = append(buf, c.in.encode(set, ranks, c.keys)...)
			}
		}
		nops := len(batchRanks)
		var t1, t2 time.Time
		if tr != nil {
			t1 = time.Now()
		}
		_, err := c.nc.Write(buf)
		if tr != nil {
			t2 = time.Now()
			c.first.armed, c.first.at = true, t2
		}
		hits, pos := 0, 0
		for i := 0; i < len(sets) && err == nil; i++ {
			if sets[i] {
				var line string
				if line, err = c.rr.ReadSimple(); err == nil && line != "STORED" {
					err = fmt.Errorf("set replied %q", line)
				}
				pos++
				continue
			}
			var h int
			h, err = c.readGet(batchRanks[pos : pos+sp.multiget])
			hits += h
			pos += sp.multiget
		}
		t4 := time.Now()
		if rec != nil {
			rec.attempted += int64(nops)
			if err != nil {
				rec.failed += int64(nops)
				fmt.Fprintf(logw, "driver: %v\n", err)
				return
			}
			if sets[0] {
				rec.sets += int64(nops)
			} else {
				rec.gets += int64(nops)
				rec.hits += int64(hits)
			}
			rec.add(t4, sets[0], t4.Sub(t0), nops)
			if t4.Sub(rec.start) >= time.Duration(len(rec.marks)+1)*windowLen {
				rec.mark()
			}
		} else if err != nil {
			fmt.Fprintf(logw, "driver (warm-up): %v\n", err)
			return
		}
		if tr != nil {
			c.first.armed = false
			c.req++
			tr.request(c.req, t0, t1, t2, c.first.at, t4)
		}
	}
}

// phase is the merged outcome of all driver goroutines over one timed
// phase; get and set are ascending microseconds, pooled over the phase.
type phase struct {
	elapsed           time.Duration
	attempted, failed int64
	gets, hits, sets  int64
	ops               int64
	get, set          []float64
	sliceP95          []float64 // get p95 of each slice, microseconds
}

func mergePhase(recs []*recorder) phase {
	var p phase
	var get, set []uint32
	slices := 0
	for _, r := range recs {
		p.attempted += r.attempted
		p.failed += r.failed
		p.gets += r.gets
		p.hits += r.hits
		p.sets += r.sets
		p.ops += r.ops
		get = append(get, r.get...)
		set = append(set, r.set...)
		if d := r.end.Sub(r.start); d > p.elapsed {
			p.elapsed = d
		}
		slices = max(slices, len(r.marks))
	}
	p.get, p.set = sortedUs(get), sortedUs(set)
	for w := 0; w < slices; w++ {
		var in []uint32
		for _, r := range recs {
			if w < len(r.marks) {
				from := 0
				if w > 0 {
					from = r.marks[w-1]
				}
				in = append(in, r.get[from:r.marks[w]]...)
			}
		}
		if len(in) >= minWindowSamples {
			p.sliceP95 = append(p.sliceP95, quantile(sortedUs(in), 0.95))
		}
	}
	return p
}

// getP95 is the reported tail: the median slice's p95, or the pooled p95
// when the phase was too short to fill a slice.
func (p phase) getP95() float64 {
	if len(p.sliceP95) == 0 {
		return quantile(p.get, 0.95)
	}
	return median(p.sliceP95)
}

// runRaw drives the single-node workloads: conns goroutines, one
// connection each, for d.
func runRaw(ctx context.Context, conns []*rawConn, streams []*stream, d time.Duration, record bool, tracers []*tracer) phase {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		if record {
			recs[i] = &recorder{start: start}
		}
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		wg.Add(1)
		go func(c *rawConn, st *stream, rec *recorder) {
			defer wg.Done()
			c.drive(ctx, st, deadline, rec, tr)
		}(c, streams[i], recs[i])
	}
	wg.Wait()
	if !record {
		return phase{}
	}
	return mergePhase(recs)
}
