package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// action is one finished scaling call.
type action struct {
	start  time.Time
	wall   time.Duration
	report *core.ScaleReport
	err    error
}

// scaleRun is the outcome of scale_in_out's timed phase. Everything is
// counted over whole in->out cycles only, so the op windows that follow
// each trigger are the same on every commit.
type scaleRun struct {
	phase
	cycles  int
	dbLoads int64 // misses that "loaded" from store.Dataset and filled
	retries int64 // gets repeated after a transport error
	ins     []action
	outs    []action
}

// runScale drives read-through traffic from one goroutine with one request
// in flight through the cluster client, and fires ScaleIn(1) / ScaleOut(1)
// at fixed op indices from a second goroutine so traffic keeps flowing
// through each migration, as the paper's web tier does. It runs warm
// (untimed) for cycleOps ops, then whole cycles until about d has passed.
func runScale(ctx context.Context, in *inputs, t *target, st *stream, d time.Duration, tr *tracer) (scaleRun, error) {
	sp := in.sp
	cl := t.cl.Client()
	var run scaleRun
	var req uint32

	// readThrough is one op: get; on a miss load the value (no sleep: the
	// backing store's latency is not what is measured) and fill.
	readThrough := func(rec *recorder) {
		_, ranks := st.next()
		rank := ranks[0]
		key := in.keys[rank]
		t0 := time.Now()
		v, hit, err := cl.Get(key)
		if err != nil {
			// A request can land on a retiring node just as it shuts down;
			// like a web tier, retry once before calling the op failed.
			run.retries++
			v, hit, err = cl.Get(key)
		}
		t1 := time.Now()
		if err == nil && hit && !bytes.Equal(v, in.value(rank)) {
			err = fmt.Errorf("%w: key %s", errWrongValue, key)
		}
		var t2 time.Time
		if err == nil && !hit {
			err = cl.Set(key, in.value(rank))
			t2 = time.Now()
		}
		if tr != nil {
			req++
			tr.add("client.Get", t0, t1, -1, req, 0)
			if !t2.IsZero() {
				tr.add("client.Set", t1, t2, -1, req, 0)
			}
		}
		if rec == nil {
			return
		}
		rec.attempted++
		if err != nil {
			rec.failed++
			fmt.Fprintf(logw, "scale_in_out: %v\n", err)
			return
		}
		rec.gets++
		rec.add(t1, false, t1.Sub(t0), 1)
		if hit {
			rec.hits++
			return
		}
		run.dbLoads++
		rec.sets++
		rec.add(t2, true, t2.Sub(t1), 0)
	}

	for i := 0; i < sp.cycleOps; i++ {
		readThrough(nil)
	}

	start := time.Now()
	rec := &recorder{start: start}
	done := make(chan action, 1) // holds the one in-flight action's result
	fire := func(scaleIn bool) {
		go func() {
			a := action{start: time.Now()}
			if scaleIn {
				a.report, a.err = t.cl.ScaleIn(ctx, 1)
			} else {
				a.report, a.err = t.cl.ScaleOut(ctx, 1)
			}
			a.wall = time.Since(a.start)
			done <- a
		}()
	}
	var firstErr error
	join := func(into *[]action) {
		a := <-done
		*into = append(*into, a)
		if tr != nil {
			traceAction(tr, a)
		}
		if a.err != nil && firstErr == nil {
			firstErr = a.err
		}
		if a.report != nil && a.report.Aborted != "" && firstErr == nil {
			firstErr = fmt.Errorf("scale %s aborted in phase %s", a.report.Direction, a.report.Aborted)
		}
	}
	for firstErr == nil && ctx.Err() == nil {
		fire(true)
		for i := 0; i < sp.cycleOps && ctx.Err() == nil; i++ {
			readThrough(rec)
		}
		join(&run.ins)
		if firstErr != nil {
			break
		}
		fire(false)
		for i := 0; i < sp.cycleOps && ctx.Err() == nil; i++ {
			readThrough(rec)
		}
		join(&run.outs)
		run.cycles++
		rec.mark()
		if n := len(t.cl.Members()); n != sp.nodes && firstErr == nil {
			firstErr = fmt.Errorf("membership is %d nodes after cycle %d, want %d", n, run.cycles, sp.nodes)
		}
		// Stop at the cycle boundary nearest to d.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*run.cycles) >= d {
			break
		}
	}
	run.phase = mergePhase([]*recorder{rec})
	run.phase.elapsed = time.Since(start)
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return run, firstErr
}

// traceAction records a scaling call as a span whose children are the
// Master's phases, laid end to end from the report's timings.
func traceAction(tr *tracer, a action) {
	var phases time.Duration
	if a.report != nil {
		for _, p := range a.report.Timings {
			phases += p.Duration
		}
	}
	name := "cluster.ScaleOut"
	if a.report != nil && a.report.Direction == "in" {
		name = "cluster.ScaleIn"
	}
	root := tr.add(name, a.start, a.start.Add(a.wall), -1, 0, phases.Nanoseconds())
	at := a.start
	if a.report != nil {
		for _, p := range a.report.Timings {
			tr.add("core."+p.Phase, at, at.Add(p.Duration), root, 0, 0)
			at = at.Add(p.Duration)
		}
	}
}
