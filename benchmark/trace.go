package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Parent indexes the causing span within the
// same tracer (-1 for a root); spans of one request share Req.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     uint32 `json:"req_id"`
}

// maxKeptSpans bounds the spans one tracer keeps in memory and writes out.
// Every span still feeds the per-name totals, so self times cover the whole
// traced phase while the file stays a few megabytes.
const maxKeptSpans = 1 << 15

// spanTotal aggregates all spans of one name.
type spanTotal struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the part child spans cover
}

// tracer collects spans for one goroutine; merge tracers after their
// goroutines have been joined. The zero epoch is the tracer's creation.
type tracer struct {
	epoch  time.Time
	spans  []span
	totals map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*spanTotal)}
}

// add records a span and returns its index for use as a parent (-1 once
// the in-memory cap is reached, which children then record as their parent).
// childNs is the time covered by the span's children, for self time.
func (t *tracer) add(name string, start, end time.Time, parent int32, req uint32, childNs int64) int32 {
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	d := end.Sub(start).Nanoseconds()
	tot.Count++
	tot.TotalNs += d
	tot.SelfNs += d - childNs
	if len(t.spans) >= maxKeptSpans {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return int32(len(t.spans) - 1)
}

// request records the driver's view of one request: a root span with the
// four stages encode -> write -> wait_read -> decode as its children.
func (t *tracer) request(req uint32, t0, t1, t2, t3, t4 time.Time) {
	root := t.add("driver.request", t0, t4, -1, req, t4.Sub(t0).Nanoseconds())
	t.add("driver.encode", t0, t1, root, req, 0)
	t.add("driver.write", t1, t2, root, req, 0)
	t.add("driver.wait_read", t2, t3, root, req, 0)
	t.add("driver.decode", t3, t4, root, req, 0)
}

// call times fn as one root span; the layer replays use it around each
// batch of calls into a layer's public functions.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, start, end, -1, 0, 0)
	return end.Sub(start)
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Totals   map[string]*spanTotal `json:"totals"`
	Spans    []span                `json:"spans"`
}

// writeTrace merges the tracers (re-basing parent indexes) and writes them.
func writeTrace(path, workload string, seed int64, tracers []*tracer) error {
	out := traceFile{Workload: workload, Seed: seed, Totals: make(map[string]*spanTotal)}
	for _, t := range tracers {
		base := int32(len(out.Spans))
		shift := t.epoch.Sub(tracers[0].epoch).Nanoseconds()
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.StartNs += shift
			s.EndNs += shift
			out.Spans = append(out.Spans, s)
		}
		for name, tot := range t.totals {
			sum := out.Totals[name]
			if sum == nil {
				sum = &spanTotal{}
				out.Totals[name] = sum
			}
			sum.Count += tot.Count
			sum.TotalNs += tot.TotalNs
			sum.SelfNs += tot.SelfNs
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
