package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/fusecache"
	"repro/internal/memproto"
	"repro/internal/metrics"
)

// The traced run. It answers "where does the time go" from the benchmark's
// own files: the workload runs once untraced and once with driver spans
// (their ratio is the tracing overhead), then the same seeded requests are
// replayed through each layer's public functions, one span per batch of
// calls. Nothing outside benchmark/ gains a span or a counter.

const (
	replayKeys   = 1 << 15 // keys per replay round
	replayRounds = 5       // rounds per replay; the median round is reported
	clientGets   = 10_000  // requests per client-library replay
	connSetups   = 200     // dial -> version samples
)

// request is one replayed request, resolved ahead of the timed loops.
type request struct {
	set   bool
	ranks []uint64
	keys  [][]byte
	hits  []bool         // resident when the plan was built: the reply carries it
	on    []*cache.Cache // the cache that owns each key
}

// plan is the recorded input of the layer replays: replayRounds segments
// of connection 0's stream, so every round replays fresh requests (a set
// replayed twice would overwrite in place instead of allocating).
type plan struct {
	rounds [][]request
	wire   [][]byte // request bytes per round, as the driver writes them
}

func (r *runner) buildPlan(route func(key string) *cache.Cache) (*plan, error) {
	sp := r.o.sp
	st, err := newStream(sp, r.o.seed, 0)
	if err != nil {
		return nil, err
	}
	perRound := replayKeys / sp.multiget
	p := &plan{}
	scratch := make([]string, 0, sp.multiget)
	for i := 0; i < replayRounds; i++ {
		var reqs []request
		var wire []byte
		for j := 0; j < perRound; j++ {
			set, ranks := st.next()
			q := request{set: set, ranks: append([]uint64(nil), ranks...)}
			for _, rank := range q.ranks {
				key := r.in.keys[rank]
				c := route(key)
				q.keys = append(q.keys, []byte(key))
				q.on = append(q.on, c)
				q.hits = append(q.hits, c.Contains(key))
			}
			wire = append(wire, r.in.encode(set, ranks, scratch)...)
			reqs = append(reqs, q)
		}
		p.rounds = append(p.rounds, reqs)
		p.wire = append(p.wire, wire)
	}
	return p, nil
}

// replay runs fn once per round, each as one span, and returns the median
// round's duration and the mallocs of the last round.
func replay(tr *tracer, name string, fn func(round int)) (time.Duration, uint64) {
	var ds []float64
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < replayRounds; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		d := tr.call(name, func() { fn(i) })
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), mallocs
}

// counters are the node-side numbers read around a stretch of traffic.
type counters struct {
	hits, misses, sets, evictions uint64
	arena, assigned               int64
	read, written                 uint64
}

func (r *runner) readCounters() (counters, error) {
	var c counters
	for _, cc := range r.t.caches() {
		s := cc.Stats()
		c.hits += s.Hits
		c.misses += s.Misses
		c.sets += s.Sets
		c.evictions += s.Evictions
		c.arena += s.ArenaBytes
		c.assigned += int64(s.AssignedPages)
	}
	cl, err := client.New(r.t.addrs())
	if err != nil {
		return c, err
	}
	defer cl.Close()
	all, err := cl.StatsAll()
	if err != nil {
		return c, err
	}
	for _, st := range all {
		var rd, wr uint64
		fmt.Sscan(st["bytes_read"], &rd)
		fmt.Sscan(st["bytes_written"], &wr)
		c.read += rd
		c.written += wr
	}
	return c, nil
}

// liveBytes sums key+value bytes of resident items, for bytes_per_user_byte.
func (r *runner) liveBytes() int64 {
	var n int64
	for _, cc := range r.t.caches() {
		for _, metas := range cc.DumpAll(nil) {
			for _, m := range metas {
				n += int64(len(m.Key) + m.ValueSize)
			}
		}
	}
	return n
}

// procSnap is the process-wide accounting read around the untraced half.
type procSnap struct {
	gc   metrics.GCSnapshot
	cpu  int64
	io   uint64
	ioOK bool
}

func readProc() procSnap {
	s := procSnap{gc: metrics.ReadGC(), cpu: cpuNanos()}
	s.io, s.ioOK = ioSyscalls()
	return s
}

// halves is what the two halves of a traced run leave behind.
type halves struct {
	plain, spans phase    // untraced half, traced half
	proc0, proc1 procSnap // around the untraced half
	node0, node1 counters // around the counted stretch of traffic
	run          scaleRun // the untraced half's scaling actions (cluster)
	tracers      []*tracer
}

// tracedRaw runs a single-node workload untraced, then with driver spans,
// on the same warm system. Node counters cover the untraced half.
func (r *runner) tracedRaw(sts []*stream, main *tracer) (h halves, err error) {
	half := seconds(r.o.seconds / 2)
	runRaw(r.ctx, r.conns, sts, seconds(r.o.seconds/10), false, nil)
	if h.node0, err = r.readCounters(); err != nil {
		return h, err
	}
	h.proc0 = readProc()
	h.plain = runRaw(r.ctx, r.conns, sts, half, true, nil)
	h.proc1 = readProc()
	if h.node1, err = r.readCounters(); err != nil {
		return h, err
	}
	h.tracers = []*tracer{main}
	for range r.conns {
		h.tracers = append(h.tracers, newTracer())
	}
	h.spans = runRaw(r.ctx, r.conns, sts, half, true, h.tracers[1:])
	return h, nil
}

// tracedScale is tracedRaw for the cluster workload. Node counters only add
// up while membership stands still, so they are read around a quiet burst
// of the same traffic after the two halves.
func (r *runner) tracedScale(st *stream, main *tracer) (h halves, err error) {
	half := seconds(r.o.seconds / 2)
	h.tracers = []*tracer{main}
	h.proc0 = readProc()
	h.run, err = runScale(r.ctx, r.in, r.t, st, half, nil)
	h.proc1 = readProc()
	r.note()
	if err != nil {
		return h, err
	}
	h.plain = h.run.phase
	tracedRun, err := runScale(r.ctx, r.in, r.t, st, half, main)
	r.note()
	if err != nil {
		return h, err
	}
	h.spans = tracedRun.phase
	if h.node0, err = r.readCounters(); err != nil {
		return h, err
	}
	if err = r.quietBurst(st, r.o.sp.cycleOps/2); err != nil {
		return h, err
	}
	h.node1, err = r.readCounters()
	return h, err
}

// traced is the --trace 1 run behind every per_layer metric.
func (r *runner) traced() (result, detail, error) {
	var res result
	det := r.newDetail()
	sp := r.o.sp
	m := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = metric{0, d.unit}
	}
	put := func(name string, v float64) {
		listed, ok := m[name]
		if !ok {
			panic("unlisted per-layer metric " + name)
		}
		m[name] = metric{v, listed.Unit}
	}

	if err := r.build(); err != nil {
		return res, det, err
	}
	sts, err := r.streams()
	if err != nil {
		return res, det, err
	}
	main := newTracer()
	var h halves
	if sp.nodes == 1 {
		h, err = r.tracedRaw(sts, main)
	} else {
		h, err = r.tracedScale(sts[0], main)
	}
	if err == nil {
		err = r.ctx.Err()
	}
	if err != nil {
		return res, det, err
	}
	plain := h.plain
	res.Attempted = plain.attempted + h.spans.attempted
	res.Failed = plain.failed + h.spans.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if plain.ops == 0 || h.spans.ops == 0 {
		return res, det, fmt.Errorf("no op completed (%d attempted, %d failed)", res.Attempted, res.Failed)
	}

	plainRate := float64(plain.ops) / plain.elapsed.Seconds()
	tracedRate := float64(h.spans.ops) / h.spans.elapsed.Seconds()
	put("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate)
	put("proc.cpu_ns_per_op", float64(h.proc1.cpu-h.proc0.cpu)/float64(plain.ops))
	put("metrics.gc_cpu_ppm", 1e6*h.proc1.gc.Sub(h.proc0.gc).CPUFraction)
	put("metrics.heap_objects", float64(h.proc1.gc.HeapObjects))
	if h.proc0.ioOK && h.proc1.ioOK {
		put("server.io_syscalls_per_op", float64(h.proc1.io-h.proc0.io)/float64(plain.ops))
	}
	put("client.get_p50_us", quantile(plain.get, 0.50))
	put("server.get_p99_us", quantile(plain.get, 0.99))
	put("server.get_p999_us", quantile(plain.get, 0.999))
	if len(plain.set) > 0 {
		put("client.set_p50_us", quantile(plain.set, 0.50))
		put("client.set_p95_us", quantile(plain.set, 0.95))
	}

	c0, c1 := h.node0, h.node1
	gets := float64(c1.hits - c0.hits + c1.misses - c0.misses)
	sets := float64(c1.sets - c0.sets)
	if gets > 0 {
		put("cache.hit_ratio", float64(c1.hits-c0.hits)/gets)
	}
	if sets > 0 {
		put("cache.evictions_per_kset", 1000*float64(c1.evictions-c0.evictions)/sets)
	}
	if ops := gets + sets; ops > 0 {
		put("server.bytes_read_per_op", float64(c1.read-c0.read)/ops)
		put("server.bytes_written_per_op", float64(c1.written-c0.written)/ops)
	}
	put("cache.assigned_pages", float64(c1.assigned))
	if live := r.liveBytes(); live > 0 {
		put("cache.bytes_per_user_byte", float64(c1.arena)/float64(live))
	}

	if err := r.replayLayers(main, put, plainRate); err != nil {
		return res, det, err
	}
	if sp.nodes > 1 {
		scaleLayers(put, h.run)
		if err := r.replayMigration(main, put); err != nil {
			return res, det, err
		}
	}
	path := filepath.Join(r.o.outDir, "trace-"+sp.name+".json")
	if err := writeTrace(path, sp.name, r.o.seed, h.tracers); err != nil {
		return res, det, err
	}
	res.Metrics = m
	det.Samples["get"], det.Samples["set"] = len(plain.get), len(plain.set)
	return res, det, nil
}

// quietBurst issues n read-through ops with no scaling action in flight.
func (r *runner) quietBurst(st *stream, n int) error {
	cl := r.t.cl.Client()
	for i := 0; i < n; i++ {
		_, ranks := st.next()
		key := r.in.keys[ranks[0]]
		_, hit, err := cl.Get(key)
		if err == nil && !hit {
			err = cl.Set(key, r.in.value(ranks[0]))
		}
		if err != nil {
			return fmt.Errorf("quiet burst: %w", err)
		}
	}
	return nil
}

// scaleLayers reports the control and migration planes from the untraced
// half's ScaleReports: medians over its scale-ins (hashsplit: scale-outs).
func scaleLayers(put func(string, float64), run scaleRun) {
	phaseMS := func(as []action, phase string) float64 {
		var v []float64
		for _, a := range as {
			for _, p := range a.report.Timings {
				if p.Phase == phase {
					v = append(v, p.Duration.Seconds()*1e3)
				}
			}
		}
		return median(v)
	}
	for _, ph := range []string{"score", "metadata", "fusecache", "data", "handover", "membership"} {
		put("core."+ph+"_ms", phaseMS(run.ins, ph))
	}
	put("core.hashsplit_ms", phaseMS(run.outs, "hashsplit"))
	put("core.scale_in_s", median(walls(run.ins)))
	put("core.scale_out_s", median(walls(run.outs)))
	put("store.db_loads_per_kop", 1000*float64(run.dbLoads)/float64(run.gets))
	put("client.retries", float64(run.retries))

	var items, moved, waves, segs, rate []float64
	var retries, resumed, wire, bytesMoved float64
	for _, a := range run.ins {
		rep := a.report
		var pairs, b float64
		for _, d := range rep.Data {
			pairs += float64(d.Pairs)
			b += float64(d.BytesMoved)
			wire += float64(d.WireBytes)
			resumed += float64(d.Resumed)
		}
		bytesMoved += b
		items = append(items, float64(rep.ItemsMigrated))
		moved = append(moved, b)
		waves = append(waves, float64(rep.HandoverWaves))
		segs = append(segs, float64(rep.Segments)/1024)
		for _, p := range rep.Timings {
			if p.Phase == "data" && p.Duration > 0 {
				rate = append(rate, pairs/p.Duration.Seconds())
			}
		}
	}
	for _, a := range append(append([]action(nil), run.ins...), run.outs...) {
		retries += float64(a.report.Retries)
	}
	put("core.retries", retries)
	put("core.handover_waves", median(waves))
	put("hashring.moved_fraction", median(segs))
	put("agent.items_migrated", median(items))
	put("agent.bytes_moved", median(moved))
	put("agentrpc.pairs_per_s", median(rate))
	put("agentrpc.resumed_pairs", resumed)
	if bytesMoved > 0 {
		put("agentrpc.wire_bytes_per_byte_moved", wire/bytesMoved)
	}
}

// replayLayers times each layer's public functions on the recorded
// requests, then derives what is left of a round trip once they are paid.
func (r *runner) replayLayers(tr *tracer, put func(string, float64), opsPerS float64) error {
	sp := r.o.sp
	caches, addrs := r.t.caches(), r.t.addrs()
	route := func(string) *cache.Cache { return caches[0] }
	if sp.nodes > 1 {
		byName := map[string]*cache.Cache{}
		for i, a := range addrs {
			byName[a] = caches[i]
		}
		cl := r.t.cl.Client()
		route = func(key string) *cache.Cache {
			owner, _ := cl.Owner(key)
			return byName[owner]
		}
	}
	p, err := r.buildPlan(route)
	if err != nil {
		return err
	}
	parseNS, replyNS, err := r.replayMemproto(tr, put, p)
	if err != nil {
		return err
	}
	getNS, multiNS, setNS, err := r.replayCache(tr, put, p)
	if err != nil {
		return err
	}

	// server: what a round trip costs beyond parse + cache + reply.
	perKeyGet := getNS
	if sp.multiget > 1 {
		perKeyGet = multiNS
	}
	layerNS := (parseNS+replyNS)/float64(sp.multiget) + (1-sp.setFrac)*perKeyGet + sp.setFrac*setNS
	put("server.residual_ns_per_op", float64(sp.conns)*1e9/opsPerS-layerNS)

	var setups []float64
	setupStart := time.Now()
	for i := 0; i < connSetups; i++ {
		t0 := time.Now()
		nc, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
		if err != nil {
			return err
		}
		_, err = nc.Write([]byte("version\r\n"))
		if err == nil {
			_, err = memproto.NewReplyReader(nc).ReadSimple()
		}
		nc.Close()
		if err != nil {
			return fmt.Errorf("conn setup: %w", err)
		}
		setups = append(setups, float64(time.Since(t0))/1e3)
	}
	tr.add("server.conn_setup", setupStart, time.Now(), -1, 0, 0)
	put("server.conn_setup_us", median(setups))

	// Keys resident on node 0, so client and raw driver fetch the same.
	var node0 []string
	for _, reqs := range p.rounds {
		for _, q := range reqs {
			for k, key := range q.keys {
				if len(node0) < clientGets && q.hits[k] && q.on[k] == caches[0] {
					node0 = append(node0, string(key))
				}
			}
		}
	}
	return r.replayClient(tr, put, addrs[0], node0)
}

// replayMemproto parses the request bytes, writes the replies the nodes
// would send and decodes them again; it returns parse and reply-write
// nanoseconds per request.
func (r *runner) replayMemproto(tr *tracer, put func(string, float64), p *plan) (parseNS, replyNS float64, err error) {
	nReq := float64(len(p.rounds[0]))
	note := func(e error) {
		if e != nil {
			err = e
		}
	}
	d, mallocs := replay(tr, "memproto.Parser.Next", func(i int) {
		ps := memproto.NewParser(bytes.NewReader(p.wire[i]))
		for {
			if _, e := ps.Next(); e != nil {
				if e != io.EOF {
					err = e
				}
				return
			}
		}
	})
	parseNS = float64(d) / nReq
	put("memproto.parse_ns_per_req", parseNS)
	put("memproto.allocs_per_req", float64(mallocs)/nReq)

	depth := r.o.sp.depth
	writeReplies := func(w io.Writer, reqs []request) {
		rw := memproto.NewReplyWriter(w)
		for j, q := range reqs {
			if q.set {
				note(rw.Stored())
			} else {
				for k, key := range q.keys {
					if q.hits[k] {
						note(rw.Value(key, 0, r.in.value(q.ranks[k])))
					}
				}
				note(rw.End())
			}
			if (j+1)%depth == 0 {
				note(rw.Flush()) // the server flushes once its input is drained
			}
		}
		note(rw.Flush())
	}
	d, _ = replay(tr, "memproto.ReplyWriter", func(i int) { writeReplies(io.Discard, p.rounds[i]) })
	replyNS = float64(d) / nReq
	put("memproto.reply_ns_per_req", replyNS)

	replies := make([][]byte, replayRounds)
	for i := range replies {
		var b bytes.Buffer
		writeReplies(&b, p.rounds[i])
		replies[i] = b.Bytes()
	}
	d, _ = replay(tr, "memproto.ReplyReader", func(i int) {
		rr := memproto.NewReplyReader(bytes.NewReader(replies[i]))
		for _, q := range p.rounds[i] {
			if q.set {
				_, e := rr.ReadSimple()
				note(e)
			} else {
				note(rr.ReadValuesFunc(func(string, uint32, []byte, uint64) error { return nil }))
			}
		}
	})
	put("memproto.decode_ns_per_reply", float64(d)/nReq)
	if err != nil {
		err = fmt.Errorf("replay memproto: %w", err)
	}
	return parseNS, replyNS, err
}

// replayCache replays the key sequence against the live nodes' caches,
// each key on its owning cache; it returns nanoseconds per key for
// GetInto, GetMultiInto and SetBytes.
func (r *runner) replayCache(tr *tracer, put func(string, float64), p *plan) (getNS, multiNS, setNS float64, err error) {
	nKeys := float64(len(p.rounds[0]) * r.o.sp.multiget)
	getAll := func(i, part, parts int) {
		var dst []byte
		n := 0
		for _, q := range p.rounds[i] {
			for k, key := range q.keys {
				if n++; n%parts == part {
					dst, _, _, _ = q.on[k].GetInto(key, dst[:0])
				}
			}
		}
	}
	d, getMallocs := replay(tr, "cache.GetInto", func(i int) { getAll(i, 0, 1) })
	getNS = float64(d) / nKeys
	put("cache.get_ns", getNS)
	d, _ = replay(tr, "cache.GetInto/2g", func(i int) {
		var wg sync.WaitGroup
		for part := 0; part < 2; part++ {
			wg.Add(1)
			go func(part int) {
				defer wg.Done()
				getAll(i, part, 2)
			}(part)
		}
		wg.Wait()
	})
	put("cache.get_ns_2g", float64(d)/nKeys)

	// Multi-gets stay on one node, as on the wire: batch per owning cache,
	// ahead of the timed loop.
	const group = 8
	type batch struct {
		on   *cache.Cache
		keys [][]byte
	}
	batches := make([][]batch, replayRounds)
	for i, reqs := range p.rounds {
		open := map[*cache.Cache][][]byte{}
		for _, q := range reqs {
			for k, key := range q.keys {
				c := q.on[k]
				if open[c] = append(open[c], key); len(open[c]) == group {
					batches[i] = append(batches[i], batch{c, open[c]})
					open[c] = nil
				}
			}
		}
	}
	d, _ = replay(tr, "cache.GetMultiInto", func(i int) {
		var items []cache.MultiItem
		var arena []byte
		for _, b := range batches[i] {
			items, arena = b.on.GetMultiInto(b.keys, items, arena)
		}
	})
	multiNS = float64(d) / nKeys
	put("cache.getmulti_ns_per_key", multiNS)

	d, setMallocs := replay(tr, "cache.SetBytes", func(i int) {
		for _, q := range p.rounds[i] {
			for k, key := range q.keys {
				if e := q.on[k].SetBytes(key, r.in.value(q.ranks[k]), 0, time.Time{}); e != nil {
					err = e
				}
			}
		}
	})
	setNS = float64(d) / nKeys
	put("cache.set_ns", setNS)
	put("cache.allocs_per_op", float64(getMallocs+setMallocs)/(2*nKeys))
	if err != nil {
		err = fmt.Errorf("replay cache: %w", err)
	}
	return getNS, multiNS, setNS, err
}

// replayClient compares the cluster client library with the raw driver on
// the same node and keys, one request in flight each.
func (r *runner) replayClient(tr *tracer, put func(string, float64), addr string, keys []string) error {
	if len(keys) == 0 {
		return errors.New("replay client: no keys on node 0")
	}
	cl, err := client.New([]string{addr})
	if err != nil {
		return err
	}
	defer cl.Close()
	var ms runtime.MemStats
	lat := make([]float64, 0, len(keys))
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	for _, k := range keys {
		t0 := time.Now()
		if _, _, err := cl.Get(k); err != nil {
			return fmt.Errorf("replay client get: %w", err)
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	tr.add("client.Cluster.Get", start, time.Now(), -1, 0, 0)
	runtime.ReadMemStats(&ms)
	put("client.allocs_per_get", float64(ms.Mallocs-before)/float64(len(keys)))
	sort.Float64s(lat)
	put("client.get_us", quantile(lat, 0.5))
	put("client.get_p99_us", quantile(lat, 0.99))

	const group = 8
	var multi []float64
	start = time.Now()
	for j := 0; j+group <= len(keys); j += group {
		t0 := time.Now()
		if _, err := cl.MultiGet(keys[j : j+group]); err != nil {
			return fmt.Errorf("replay client multi-get: %w", err)
		}
		multi = append(multi, float64(time.Since(t0))/1e3/group)
	}
	tr.add("client.Cluster.MultiGet", start, time.Now(), -1, 0, 0)
	put("client.multiget_us_per_key", median(multi))

	ring := cl
	if r.t.cl != nil {
		ring = r.t.cl.Client() // the live cluster's ring has all its members
	}
	start = time.Now()
	for _, k := range keys {
		if _, err := ring.Owner(k); err != nil {
			return err
		}
	}
	end := time.Now()
	tr.add("client.Cluster.Owner", start, end, -1, 0, 0)
	put("hashring.owner_ns", float64(end.Sub(start))/float64(len(keys)))

	// The raw driver on the same keys: what the client library adds.
	raw, err := dialRaw(r.in, addr)
	if err != nil {
		return err
	}
	defer raw.nc.Close()
	rawLat := make([]float64, 0, len(keys))
	one := make([]string, 1)
	rank := make([]uint64, 1)
	for _, k := range keys {
		one[0] = k
		if rank[0], err = r.in.ds.RankOf(k); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := raw.nc.Write(memproto.FormatGet(one)); err != nil {
			return err
		}
		if _, err := raw.readGet(rank); err != nil {
			return fmt.Errorf("replay raw get: %w", err)
		}
		rawLat = append(rawLat, float64(time.Since(t0))/1e3)
	}
	put("client.overhead_us", quantile(lat, 0.5)-median(rawLat))
	return nil
}

// replayMigration times the migration plane's building blocks on the loaded
// nodes: hotness selection, streaming the hottest pairs out of one node,
// importing them into another (full) node, and FuseCache over the nodes'
// dumped hotness lists.
func (r *runner) replayMigration(tr *tracer, put func(string, float64)) error {
	caches := r.t.caches()
	if len(caches) < 2 {
		return errors.New("replay migration: need two nodes")
	}
	src, dst := caches[0], caches[1]
	class, most := -1, 0
	for _, id := range src.PopulatedClasses() {
		if n := src.ClassLen(id); n > most {
			class, most = id, n
		}
	}
	if class < 0 {
		return errors.New("replay migration: source node is empty")
	}
	var err error
	d := tr.call("cache.TopMeta", func() { _, err = src.TopMeta(class, most, nil) })
	if err != nil {
		return err
	}
	put("cache.topmeta_ms", d.Seconds()*1e3)

	var pairs []cache.KV
	d = tr.call("cache.FetchTopStream", func() {
		_, err = src.FetchTopStream(class, most, nil, 512, 1<<20, func(b cache.StreamBatch) error {
			for _, kv := range b.Pairs {
				kv.Value = append([]byte(nil), kv.Value...)
				pairs = append(pairs, kv)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	put("cache.fetch_stream_pairs_per_s", float64(len(pairs))/d.Seconds())

	var imported int
	d = tr.call("cache.BatchImport", func() { imported, err = dst.BatchImport(pairs, false) })
	if err != nil {
		return err
	}
	put("cache.batch_import_pairs_per_s", float64(imported)/d.Seconds())

	var lists []fusecache.List
	total := 0
	for _, c := range caches {
		metas, err := c.DumpClass(class, nil)
		if err != nil {
			return err
		}
		l := make(fusecache.List, len(metas))
		for i, m := range metas {
			l[i] = m.LastAccess.UnixNano()
		}
		lists = append(lists, l)
		total += len(l)
	}
	var st fusecache.Stats
	d = tr.call("fusecache.TopNStats", func() { _, st, err = fusecache.TopNStats(lists, total/2) })
	if err != nil {
		return err
	}
	put("fusecache.topn_us", float64(d)/1e3)
	put("fusecache.rounds", float64(st.Rounds))
	put("fusecache.comparisons", float64(st.Comparisons))
	return nil
}
