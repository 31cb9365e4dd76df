// Command elmem-benchmark is the repository's one benchmark: four frozen
// workloads run against real nodes (server.Listen / cluster.StartLocal) over
// loopback TCP inside this single process. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// logw receives diagnostics; results go to stdout only.
var logw io.Writer = os.Stderr

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is recorded with every result so numbers are never compared across
// unlike machines by accident.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GitRev: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
		}
	}
	return h
}

// detail is the line printed before the result: host facts, sample counts
// and ungated numbers. Claim is always null: this benchmark defines names,
// it claims no gain.
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Claim    *string            `json:"claim"`
	Samples  map[string]int     `json:"samples"`
	Detail   map[string]float64 `json:"detail"`
}

// options select one run.
type options struct {
	sp      spec
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced run writes its span file
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default with -repeat: all four)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 10, "length of the measured phase")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "about 1% of the work, for the package tests")
		maxWall      = flag.Duration("max-wall", 150*time.Second, "exit 3 if one run takes longer")
		repeat       = flag.Int("repeat", 0, "run the workload(s) N times and write medians and quartiles to -out")
		out          = flag.String("out", "", "file -repeat writes")
		compare      = flag.Bool("compare", false, "compare two -repeat files given as arguments")
		benchJSON    = flag.String("bench-json", "BENCHMARK.json", "metric directions and bounds for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(logw, "usage: -compare a.json b.json")
			return 2
		}
		if err := compareFiles(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(logw, "compare:", err)
			return 1
		}
		return 0
	}

	// SIGINT/SIGTERM cancel ctx: drivers stop at their next request, every
	// deferred Close runs, and the process exits without a leftover.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var chosen []spec
	if *workloadName == "" && *repeat > 0 {
		chosen = specs
	} else if sp, ok := specByName(*workloadName); ok {
		chosen = []spec{sp}
	} else {
		fmt.Fprintf(logw, "unknown workload %q; have:", *workloadName)
		for _, sp := range specs {
			fmt.Fprintf(logw, " %s", sp.name)
		}
		fmt.Fprintln(logw)
		return 2
	}

	runOne := func(sp spec) (result, detail, error) {
		// A hung workload must not outlive the caller's patience: the
		// watchdog is the last resort when Close itself is what hangs.
		watchdog := time.AfterFunc(*maxWall, func() {
			fmt.Fprintf(logw, "elmem-benchmark: %s exceeded -max-wall %s\n", sp.name, *maxWall)
			os.Exit(3)
		})
		defer watchdog.Stop()
		opts := options{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "benchmark/out"}
		if *smoke {
			opts.sp, opts.seconds = sp.smoke(), math.Min(*seconds, 0.5)
		}
		return runWorkload(ctx, opts)
	}

	if *repeat > 0 {
		if *out == "" {
			fmt.Fprintln(logw, "-repeat needs -out")
			return 2
		}
		if err := repeatRuns(*out, chosen, *repeat, runOne); err != nil {
			fmt.Fprintln(logw, "repeat:", err)
			return 1
		}
		return 0
	}

	res, det, err := runOne(chosen[0])
	if err != nil {
		fmt.Fprintln(logw, "elmem-benchmark:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload builds the system, runs one workload and tears everything
// down again. Failed ops (a wrong value, an error reply, a timeout) come
// back counted in a result that is not Correct; an aborted scaling action,
// a cluster not back to full membership, or a listener still open after
// Close is an error and yields no result at all.
func runWorkload(ctx context.Context, o options) (res result, det detail, err error) {
	in, err := newInputs(o.sp)
	if err != nil {
		return res, det, err
	}
	// Runs that share this process (-repeat) must not inherit each other's
	// heap: hand freed spans back before the high-water mark restarts.
	debug.FreeOSMemory()
	resetPeakRSS()
	r := &runner{ctx: ctx, o: o, in: in, seen: make(map[string]bool)}
	defer func() {
		if cerr := r.teardown(); err == nil {
			err = cerr
		}
	}()
	if o.trace {
		return r.traced()
	}
	return r.endToEnd()
}

// runner owns the live target and driver connections of one run.
type runner struct {
	ctx   context.Context
	o     options
	in    *inputs
	t     *target
	conns []*rawConn
	seen  map[string]bool // every cache address that ever listened
}

// build sets the system up once, remembering its listeners.
func (r *runner) build() error {
	t, err := setup(r.in)
	if err != nil {
		return err
	}
	r.t = t
	r.note()
	if r.o.sp.nodes > 1 {
		return nil
	}
	for i := 0; i < r.o.sp.conns; i++ {
		c, err := dialRaw(r.in, t.srv.Addr())
		if err != nil {
			return err
		}
		r.conns = append(r.conns, c)
	}
	return nil
}

func (r *runner) note() {
	for _, a := range r.t.addrs() {
		r.seen[a] = true
	}
}

// teardown closes connections and nodes, then proves the listeners are
// gone by binding each address once more: a benchmark that leaves a socket
// behind is rejected, not reported. (Binding, not dialling: a dial to a free
// loopback port can connect to itself when the kernel picks that same port
// as its source.)
func (r *runner) teardown() error {
	for _, c := range r.conns {
		c.nc.Close()
	}
	r.conns = nil
	if r.t == nil {
		return nil
	}
	err := r.t.Close()
	r.t = nil
	for addr := range r.seen {
		ln, lerr := net.Listen("tcp", addr)
		if lerr != nil {
			err = errors.Join(err, fmt.Errorf("listener %s still open after Close: %w", addr, lerr))
			continue
		}
		ln.Close()
	}
	return err
}

// streams opens each driver goroutine's seeded sequence.
func (r *runner) streams() ([]*stream, error) {
	out := make([]*stream, r.o.sp.conns)
	for i := range out {
		st, err := newStream(r.o.sp, r.o.seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupRounds is how many times the system is built per run; setup_s is
// the median, so one slow page-fault storm does not decide it.
const setupRounds = 5

// endToEnd is the untraced run behind every end_to_end metric.
func (r *runner) endToEnd() (result, detail, error) {
	var res result
	det := r.newDetail()
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if err := r.teardown(); err != nil {
			return res, det, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.build(); err != nil {
			return res, det, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sts, err := r.streams()
	if err != nil {
		return res, det, err
	}

	var p phase
	if r.o.sp.nodes == 1 {
		runRaw(r.ctx, r.conns, sts, seconds(r.o.seconds/10), false, nil)
		p = runRaw(r.ctx, r.conns, sts, seconds(r.o.seconds), true, nil)
	} else {
		run, err := runScale(r.ctx, r.in, r.t, sts[0], seconds(r.o.seconds), nil)
		r.note()
		if err != nil {
			return res, det, err
		}
		p = run.phase
		scaleDetail(det.Detail, run)
	}
	if err := r.ctx.Err(); err != nil {
		return res, det, err
	}

	if p.gets == 0 || p.elapsed <= 0 {
		return res, det, fmt.Errorf("no get completed (%d ops attempted, %d failed)", p.attempted, p.failed)
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0
	values := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   float64(p.ops) / p.elapsed.Seconds(),
		"get_p95_us":  p.getP95(),
		"hit_rate":    float64(p.hits) / float64(p.gets),
		"peak_rss_mb": peakRSSMB(),
	}
	res.Metrics = make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	det.Samples["get"], det.Samples["set"] = len(p.get), len(p.set)
	det.Samples["slices"] = len(p.sliceP95)
	det.Detail["get_p50_us"] = quantile(p.get, 0.50)
	det.Detail["get_p99_us"], det.Detail["get_p999_us"] = quantile(p.get, 0.99), quantile(p.get, 0.999)
	det.Detail["error_rate"] = float64(p.failed) / float64(p.attempted)
	if len(p.set) > 0 {
		det.Detail["set_p50_us"], det.Detail["set_p95_us"] = quantile(p.set, 0.50), quantile(p.set, 0.95)
	}
	return res, det, nil
}

func (r *runner) newDetail() detail {
	return detail{
		Workload: r.o.sp.name, Seed: r.o.seed, Seconds: r.o.seconds, Trace: r.o.trace,
		Host: hostFacts(), Samples: map[string]int{}, Detail: map[string]float64{},
	}
}

// scaleDetail adds the scaling actions' ungated outcome to the detail line.
func scaleDetail(d map[string]float64, run scaleRun) {
	d["cycles"] = float64(run.cycles)
	d["scale_in_s"] = median(walls(run.ins))
	d["scale_out_s"] = median(walls(run.outs))
	d["db_loads_per_kop"] = 1000 * float64(run.dbLoads) / float64(run.gets)
	d["retries"] = float64(run.retries)
}

func walls(as []action) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.wall.Seconds()
	}
	return out
}
