package agent

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
)

// Streaming phase-3 data plane — the only one. A push:
//
//   - ships the first takes of the picks phase 1 kept (cache.RoutePicks),
//     cuts them into bounded batches (cache.CutBatches) and reads values
//     one batch at a time (cache.AppendPicks), so the sender's extra
//     memory is O(window × batch) beyond its picks, rather than O(hot set)
//     of values;
//   - opens one ImportSession per target and keeps up to W
//     sequence-numbered batches in flight (windowed pipelining; TCP
//     preserves order, the receiver applies in arrival order, which stays
//     coldest-first per class so MRU invariant I2 holds);
//   - resumes after a failed push: the receiver acks its applied sequence
//     high-water mark, and a retried send over the same plan skips every
//     batch at or below it. The fresher-copy idempotence of BatchImport
//     remains the safety net underneath.

// SendStats reports what one phase-3 push (SendData) moved.
type SendStats struct {
	// Pairs is the number of selected pairs covered by the push: shipped
	// now, or already acknowledged by the receiver and skipped on resume.
	Pairs int `json:"pairs"`
	// Resumed counts the subset of Pairs a retried push skipped because
	// the receiver's high-water mark showed them already applied.
	Resumed int `json:"resumed,omitempty"`
	// Unapplied counts pairs this push shipped that the receiver did not
	// apply — refused for want of a chunk, or dropped as stale under the
	// ownership table: shipped minus the receiver's
	// ImportSummary.Imported. Set only when the push completes.
	Unapplied int `json:"unapplied,omitempty"`
	// Batches is the number of batches covered (shipped or skipped).
	Batches int `json:"batches,omitempty"`
	// BytesMoved is the payload volume covered: key + value bytes.
	BytesMoved int64 `json:"bytesMoved,omitempty"`
	// WireBytes is what actually crossed the transport, encoding
	// included; zero for in-process transports.
	WireBytes int64 `json:"wireBytes,omitempty"`
	// PeakInflightBytes bounds the sender-side payload bytes live at any
	// moment: the window of unacknowledged batches plus the batch being
	// built. This is the O(window × batch) memory-bound witness.
	PeakInflightBytes int64 `json:"peakInflightBytes,omitempty"`
	// Duration is the wall time of the data push.
	Duration time.Duration `json:"duration,omitempty"`
}

// ImportSummary is the receiver's closing word on an import session.
type ImportSummary struct {
	// HighWater is the last applied sequence number.
	HighWater uint64
	// Imported is the number of pairs applied during this session.
	Imported int
	// WireBytes is the encoded volume the session put on the wire
	// (zero in-process).
	WireBytes int64
}

// ImportSession is one resumable, windowed phase-3 stream to a peer.
// Sessions are single-goroutine: Send may block to absorb backpressure
// (reading acks inline) and must be called with strictly increasing seq
// starting at 1. After any Send error the session is dead; Close drains
// outstanding acks and releases the session, Abort releases it without
// draining.
type ImportSession interface {
	// HighWater returns the receiver's applied sequence high-water mark
	// at open time; the sender skips batches with seq <= HighWater.
	HighWater() uint64
	// Send ships one batch. Pairs are coldest-first; the slice and its
	// value buffers may be reused by the caller after Send returns.
	Send(ctx context.Context, seq uint64, pairs []cache.KV) error
	// Close drains outstanding acks and returns the receiver's summary.
	Close(ctx context.Context) (ImportSummary, error)
	// Abort releases the session without draining (after an error).
	Abort()
}

// importState is the receiver-side memory of one sender's stream.
type importState struct {
	epoch     uint64
	fp        uint64
	mu        sync.Mutex
	highWater uint64
	imported  int
}

// ImportOpen registers (or resumes) an import stream from a sender and
// returns the applied sequence high-water mark — zero for a fresh
// stream. A matching (epoch, fingerprint) resumes the existing state; any
// mismatch starts over, so a new plan never skips batches on the strength
// of an older stream's acks.
func (a *Agent) ImportOpen(from string, epoch, fingerprint uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.imports == nil {
		a.imports = make(map[string]*importState)
	}
	if st := a.imports[from]; st != nil && st.epoch == epoch && st.fp == fingerprint {
		st.mu.Lock()
		hw := st.highWater
		st.mu.Unlock()
		return hw
	}
	a.imports[from] = &importState{epoch: epoch, fp: fingerprint}
	return 0
}

// ImportFrame applies one sequenced batch of a stream opened with
// ImportOpen. Duplicate frames (seq at or below the high-water mark) are
// acknowledged without re-applying; a gap is a protocol error — the
// sender must reopen and resume. Pairs are coldest-first and prepended at
// the MRU head in order, so the batch's hottest pair ends up at the head.
func (a *Agent) ImportFrame(from string, epoch, seq uint64, pairs []cache.KV) (highWater uint64, imported int, err error) {
	a.mu.Lock()
	st := a.imports[from]
	a.mu.Unlock()
	if st == nil || st.epoch != epoch {
		return 0, 0, fmt.Errorf("agent: no open import stream from %q epoch %d", from, epoch)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq <= st.highWater {
		return st.highWater, 0, nil // duplicate delivery: already applied
	}
	if seq != st.highWater+1 {
		return st.highWater, 0, fmt.Errorf("agent: import gap from %q: seq %d after high-water %d", from, seq, st.highWater)
	}
	n, err := a.cache.BatchImport(a.filterStale(pairs), false)
	if err != nil {
		return st.highWater, n, err
	}
	st.highWater = seq
	st.imported += n
	a.counters.PairsImported.Add(int64(n))
	a.counters.FramesImported.Add(1)
	return st.highWater, n, nil
}

// localSession adapts the receiver Agent itself to ImportSession for the
// in-process transport: every Send applies synchronously, which keeps the
// chaos harness's schedules deterministic.
type localSession struct {
	recv     *Agent
	from     string
	epoch    uint64
	hw       uint64
	imported int
}

// OpenImport implements Peer for in-process transports.
func (a *Agent) OpenImport(_ context.Context, from string, epoch, fingerprint uint64, _ int) (ImportSession, error) {
	hw := a.ImportOpen(from, epoch, fingerprint)
	return &localSession{recv: a, from: from, epoch: epoch, hw: hw}, nil
}

func (s *localSession) HighWater() uint64 { return s.hw }

func (s *localSession) Send(ctx context.Context, seq uint64, pairs []cache.KV) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	hw, n, err := s.recv.ImportFrame(s.from, s.epoch, seq, pairs)
	s.hw, s.imported = hw, s.imported+n
	return err
}

func (s *localSession) Close(context.Context) (ImportSummary, error) {
	return ImportSummary{HighWater: s.hw, Imported: s.imported}, nil
}

func (s *localSession) Abort() {}

// planFingerprint identifies a push plan — one non-empty prefix of the
// picks per slab class, hottest-first, classes ascending — by target and
// every pick's (stamp, key hash, size) in order. A retry of the same
// logical push ships the same picks and reproduces it exactly — that,
// plus pick-derived batch boundaries, is what makes skipping acknowledged
// sequences sound. A new round picks anew and fingerprints differently,
// resetting the receiver's stream state.
func planFingerprint(target string, plan [][]cache.Pick) uint64 {
	h := hashring.KeyHash(target)
	mix := func(v uint64) { // the MurmurHash3 finalizer over state ^ word
		h ^= v
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	for _, sel := range plan {
		mix(uint64(len(sel)))
		for _, p := range sel {
			mix(uint64(p.Stamp))
			mix(p.Hash)
			mix(uint64(p.Size))
		}
	}
	return h
}

// epochFor returns a stable epoch for pushing plan fp to target: retries
// of the same plan reuse the epoch (enabling resume), a different plan
// gets a fresh one (resetting the receiver's stream state even if the
// fingerprints were ever to collide across rounds).
func (a *Agent) epochFor(target string, fp uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sendMemo == nil {
		a.sendMemo = make(map[string]sendMemo)
	}
	if m, ok := a.sendMemo[target]; ok && m.fp == fp {
		return m.epoch
	}
	a.epochSeq++
	m := sendMemo{fp: fp, epoch: a.epochSeq}
	a.sendMemo[target] = m
	return m.epoch
}

type sendMemo struct {
	fp    uint64
	epoch uint64
}

// pushPlan streams a plan to a peer, windowed and resumable. Emission order
// is classes ascending, coldest-first within each class; batch boundaries
// come from cache.CutBatches — the picks alone — so a retry re-produces
// identical sequence numbering.
func (a *Agent) pushPlan(ctx context.Context, peer Peer, target string, plan [][]cache.Pick) (SendStats, error) {
	fp := planFingerprint(target, plan)
	if t := a.ownership.Load(); t != nil {
		// Tag the stream with the ownership table version: a plan retried
		// across a handover boundary fingerprints differently, so the
		// receiver resets stream state instead of resuming acks earned
		// under a superseded ownership table.
		fp ^= t.Version() * 0x9e3779b97f4a7c15
	}
	epoch := a.epochFor(target, fp)
	sess, err := peer.OpenImport(ctx, a.node, epoch, fp, a.maxInflight)
	if err != nil {
		return SendStats{}, err
	}
	var stats SendStats
	closed := false
	defer func() {
		if !closed {
			sess.Abort()
		}
	}()
	hw := sess.HighWater()

	var (
		seq uint64
		buf []cache.KV
		// window tracks the payload bytes of the last maxInflight sent
		// batches — the upper bound on unacknowledged sender-side memory.
		window   []int
		inflight int64
		shipped  int
	)
	err = cache.CutBatches(plan, a.batchSize, a.batchBytes, func(batch []cache.Pick, batchBytes int) error {
		seq++
		if seq <= hw {
			// Already applied by the receiver in a previous attempt.
			stats.Resumed += len(batch)
		} else {
			buf = a.cache.AppendPicks(buf[:0], batch)
			inflight += int64(batchBytes)
			if inflight > stats.PeakInflightBytes {
				stats.PeakInflightBytes = inflight
			}
			if err := sess.Send(ctx, seq, buf); err != nil {
				// A failed Send aborts the push, so the batch is not counted
				// as covered — the retry re-covers it.
				return err
			}
			shipped += len(buf)
			window = append(window, batchBytes)
			if len(window) > a.maxInflight {
				inflight -= int64(window[0])
				window = window[1:]
			}
		}
		stats.Batches++
		stats.Pairs += len(batch)
		stats.BytesMoved += int64(batchBytes)
		return nil
	})
	if err != nil {
		return stats, err
	}
	sum, err := sess.Close(ctx)
	closed = true
	if err != nil {
		return stats, err
	}
	stats.WireBytes = sum.WireBytes
	stats.Unapplied = shipped - sum.Imported
	return stats, nil
}

// MigrationCounters is a point-in-time snapshot of the agent's cumulative
// data-plane counters, exported via expvar when -debug-addr is set.
type MigrationCounters struct {
	PairsSent      int64 `json:"pairsSent"`
	PairsResumed   int64 `json:"pairsResumed"`
	BytesMoved     int64 `json:"bytesMoved"`
	WireBytesOut   int64 `json:"wireBytesOut"`
	BatchesSent    int64 `json:"batchesSent"`
	PairsImported  int64 `json:"pairsImported"`
	FramesImported int64 `json:"framesImported"`
	StaleDropped   int64 `json:"staleDropped"`
}

type counters struct {
	PairsSent      atomic.Int64
	PairsResumed   atomic.Int64
	BytesMoved     atomic.Int64
	WireBytesOut   atomic.Int64
	BatchesSent    atomic.Int64
	PairsImported  atomic.Int64
	FramesImported atomic.Int64
	StaleDropped   atomic.Int64
}

// Counters snapshots the agent's cumulative migration counters.
func (a *Agent) Counters() MigrationCounters {
	return MigrationCounters{
		PairsSent:      a.counters.PairsSent.Load(),
		PairsResumed:   a.counters.PairsResumed.Load(),
		BytesMoved:     a.counters.BytesMoved.Load(),
		WireBytesOut:   a.counters.WireBytesOut.Load(),
		BatchesSent:    a.counters.BatchesSent.Load(),
		PairsImported:  a.counters.PairsImported.Load(),
		FramesImported: a.counters.FramesImported.Load(),
		StaleDropped:   a.counters.StaleDropped.Load(),
	}
}

// recordSend folds a completed push into the cumulative counters.
func (a *Agent) recordSend(s SendStats) {
	a.counters.PairsSent.Add(int64(s.Pairs - s.Resumed))
	a.counters.PairsResumed.Add(int64(s.Resumed))
	a.counters.BytesMoved.Add(s.BytesMoved)
	a.counters.WireBytesOut.Add(s.WireBytes)
	a.counters.BatchesSent.Add(int64(s.Batches))
}
