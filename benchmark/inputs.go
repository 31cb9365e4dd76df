package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/memproto"
	"repro/internal/store"
	"repro/internal/workload"
)

// spec freezes one workload: the node layout, the key and value population
// and the traffic mix. The code under test never sees a spec, only the
// bytes generated from it.
type spec struct {
	name string
	why  string

	nodes   int   // 1: one server.Listen node; >1: cluster.StartLocal
	nodeMem int64 // cache budget per node, bytes
	conns   int   // closed-loop driver goroutines, one connection each

	keys           uint64  // keyspace, ranks [0, keys)
	theta          float64 // Zipf skew of the rank popularity
	setFrac        float64 // share of ops that are sets (raw-driver workloads)
	minVal, maxVal int     // value size bounds, bytes
	scale, shape   float64 // generalized-Pareto value-size parameters

	multiget int // keys per get request
	depth    int // get requests written before the first reply is read

	// cycleOps is scale_in_out's trigger spacing: ScaleIn fires at op
	// index c*2*cycleOps and ScaleOut cycleOps later, for cycle c = 0, 1, …
	// The same spacing is the fixed window over which backing-store loads
	// are counted after each trigger.
	cycleOps int
}

const (
	mib = 1 << 20
	// etc* are the Facebook ETC value-size parameters the paper's load
	// generator uses (workload.DefaultPareto*).
	etcScale = workload.DefaultParetoScale
	etcShape = workload.DefaultParetoShape
)

// specs are the four frozen workloads, in BENCHMARK.json order.
//
// Sizing note. The cache pins whole 1 MiB pages per (shard, slab class), so
// a node can only store a value population whose shards x classes stays
// below its page count; beyond that, sets into a page-less slab fail with
// "out of memory" however empty the node is (ETC's 21 classes need more
// than the 256 pages of a 256 MiB, 16-shard node). A benchmark op must
// never fail, so the two "fits" workloads get a 512 MiB budget (pages are
// only backed once used) and the two small-node workloads draw values from
// a narrower size range. README.md has the arithmetic.
var specs = []spec{
	{
		name:  "get_heavy_depth1",
		why:   "round-trip bound: flush/syscall/wakeup dominate each op; parser or index wins must not move it",
		nodes: 1, nodeMem: 512 * mib, conns: 2,
		keys: 200_000, theta: 0.99, setFrac: 0.05,
		minVal: 1, maxVal: 8192, scale: etcScale, shape: etcShape,
		multiget: 1, depth: 1,
	},
	{
		name:  "pipelined_multiget",
		why:   "syscalls amortised over 128 keys per write, so memproto parse, cache probe/copy and reply write do the work",
		nodes: 1, nodeMem: 512 * mib, conns: 2,
		keys: 200_000, theta: 0.99, setFrac: 0,
		minVal: 1, maxVal: 8192, scale: etcScale, shape: etcShape,
		multiget: 8, depth: 16,
	},
	{
		name:  "write_churn_oversized",
		why:   "keyspace 4x the node's memory, half the ops are sets: every set allocates and evicts, so hit_rate is an outcome",
		nodes: 1, nodeMem: 64 * mib, conns: 2,
		keys: 800_000, theta: 0.9, setFrac: 0.5,
		minVal: 64, maxVal: 420, scale: etcScale, shape: etcShape,
		multiget: 1, depth: 1,
	},
	{
		name:  "scale_in_out",
		why:   "the paper's experiment: read-through traffic across live ScaleIn/ScaleOut cycles of a 4-node cluster",
		nodes: 4, nodeMem: 32 * mib, conns: 1,
		keys: 525_000, theta: 0.99,
		minVal: 94, maxVal: 245, scale: etcScale, shape: etcShape,
		multiget: 1, depth: 1,
		cycleOps: 30_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// smoke shrinks a spec to about a hundredth of its work (16x fewer keys;
// the caller also shortens the run) so the package tests stay fast. Node
// budgets stay: pages are only backed once used, and a smaller budget
// would change the shard count and with it the code path.
func (sp spec) smoke() spec {
	sp.keys /= 16
	sp.cycleOps /= 16
	return sp
}

// inputs are everything generated ahead of the run: the key table and the
// expected value of every key, so sets send and gets verify without
// synthesizing bytes inside the timed loop.
type inputs struct {
	sp   spec
	ds   *store.Dataset
	keys []string
	off  []uint32 // value of rank r is data[off[r]:off[r+1]]
	data []byte
}

func newInputs(sp spec) (*inputs, error) {
	ds, err := store.NewDataset(sp.keys,
		store.WithPareto(sp.scale, sp.shape), store.WithSizeBounds(sp.minVal, sp.maxVal))
	if err != nil {
		return nil, err
	}
	in := &inputs{sp: sp, ds: ds, keys: make([]string, sp.keys), off: make([]uint32, sp.keys+1)}
	var total uint64
	for r := uint64(0); r < sp.keys; r++ {
		total += uint64(ds.SizeOf(r))
	}
	if total >= 1<<32 {
		return nil, fmt.Errorf("dataset of %d bytes exceeds the 4 GiB value table", total)
	}
	in.data = make([]byte, 0, total)
	for r := uint64(0); r < sp.keys; r++ {
		in.keys[r] = workload.KeyName(r)
		v, err := ds.Value(in.keys[r])
		if err != nil {
			return nil, err
		}
		in.data = append(in.data, v...)
		in.off[r+1] = uint32(len(in.data))
	}
	return in, nil
}

// value is the one correct value of a rank: store.Dataset's bytes.
func (in *inputs) value(rank uint64) []byte { return in.data[in.off[rank]:in.off[rank+1]] }

// stream is one driver goroutine's endless, seeded request sequence. A run
// consumes the prefix that fits its duration, so the same seed always
// yields the same inputs in the same order.
type stream struct {
	rng     *rand.Rand
	zipf    *workload.Zipf
	setFrac float64
	ranks   []uint64 // scratch returned by next
}

func newStream(sp spec, seed int64, conn int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919))
	z, err := workload.NewZipf(rng, sp.theta, sp.keys)
	if err != nil {
		return nil, err
	}
	return &stream{rng: rng, zipf: z, setFrac: sp.setFrac, ranks: make([]uint64, sp.multiget)}, nil
}

// next draws one request: a set of one key, or a get of the spec's
// multiget width. The returned slice is reused by the following call.
func (s *stream) next() (set bool, ranks []uint64) {
	if s.setFrac > 0 && s.rng.Float64() < s.setFrac {
		s.ranks[0] = s.zipf.Next()
		return true, s.ranks[:1]
	}
	for i := range s.ranks {
		s.ranks[i] = s.zipf.Next()
	}
	return false, s.ranks
}

// encode renders a request exactly as the raw driver writes it.
func (in *inputs) encode(set bool, ranks []uint64, keyScratch []string) []byte {
	if set {
		return memproto.FormatSet(in.keys[ranks[0]], 0, 0, in.value(ranks[0]), false)
	}
	keyScratch = keyScratch[:0]
	for _, r := range ranks {
		keyScratch = append(keyScratch, in.keys[r])
	}
	return memproto.FormatGet(keyScratch)
}

// requestBytes renders the first n requests of one connection's stream.
// The traced run replays these bytes through memproto; the determinism
// test hashes them.
func (in *inputs) requestBytes(seed int64, conn, n int) ([]byte, error) {
	st, err := newStream(in.sp, seed, conn)
	if err != nil {
		return nil, err
	}
	var out []byte
	scratch := make([]string, 0, in.sp.multiget)
	for i := 0; i < n; i++ {
		set, ranks := st.next()
		out = append(out, in.encode(set, ranks, scratch)...)
	}
	return out, nil
}

// streamHash fingerprints a workload's generated inputs for a seed: the
// request bytes of every connection plus the scaling trigger indices.
func (in *inputs) streamHash(seed int64, n int) (uint64, error) {
	h := fnv.New64a()
	for conn := 0; conn < in.sp.conns; conn++ {
		b, err := in.requestBytes(seed, conn, n)
		if err != nil {
			return 0, err
		}
		h.Write(b)
	}
	for c := 0; c < 3 && in.sp.cycleOps > 0; c++ {
		fmt.Fprintf(h, "in@%d out@%d ", c*2*in.sp.cycleOps, (c*2+1)*in.sp.cycleOps)
	}
	return h.Sum64(), nil
}
