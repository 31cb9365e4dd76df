package faultnet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fusecache"
)

// This file wraps ElMem's RPC surfaces — agent.Transport/agent.Peer for
// agent-to-agent pushes and core.Directory/core.MasterAgent for Master
// commands — so every control-plane operation passes through the
// schedule. Operation names mirror the agentrpc wire ops, which map
// one-to-one onto the paper's migration phases.

// The RPC operation names used for schedule lookup.
const (
	OpScore         = "score"
	OpSendMetadata  = "send_metadata"
	OpComputeTakes  = "compute_takes"
	OpSendData      = "send_data"
	OpRelease       = "release"
	OpOfferMetadata = "offer_metadata"
	OpImportData    = "import_data"
	OpImportOpen    = "import_open"
)

// apply runs one RPC-shaped operation under the schedule's decision for
// (from, to, op). Drop fails before deliver runs; DropReply runs deliver
// and then reports failure (the lost-reply case that makes retries
// replay); Dup runs deliver twice; Delay sleeps deterministically first.
// Injected failures are plain (non-Permanent) errors so taskgroup.Retry
// treats them as transient, exactly like a real transport fault.
func (n *Network) apply(ctx context.Context, from, to, op string, deliver func() error) error {
	d := n.Decide(from, to, op, false)
	switch d.Action {
	case ActPartition:
		return fmt.Errorf("%w: link %s->%s partitioned (%s)", ErrInjected, from, to, op)
	case ActDrop:
		return fmt.Errorf("%w: %s dropped on %s->%s", ErrInjected, op, from, to)
	case ActDropReply:
		if err := deliver(); err != nil {
			// The real operation failed on its own; keep that cause but
			// still lose the reply so the caller retries.
			return fmt.Errorf("%w: reply lost on %s->%s (%s): after %v", ErrInjected, from, to, op, err)
		}
		return fmt.Errorf("%w: reply lost on %s->%s (%s)", ErrInjected, from, to, op)
	case ActDup:
		if err := deliver(); err != nil {
			return err
		}
		return deliver()
	case ActDelay:
		if err := sleepCtx(ctx, d.Delay); err != nil {
			return err
		}
		return deliver()
	default:
		return deliver()
	}
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// faultyPeer applies the schedule to one directed peer link.
type faultyPeer struct {
	net      *Network
	from, to string
	inner    agent.Peer
}

// OfferMetadata implements agent.Peer.
func (p *faultyPeer) OfferMetadata(ctx context.Context, from string, round uint64, lists map[int]fusecache.List) error {
	return p.net.apply(ctx, p.from, p.to, OpOfferMetadata, func() error {
		return p.inner.OfferMetadata(ctx, from, round, lists)
	})
}

// OpenImport implements agent.Peer: the open handshake runs under the
// OpImportOpen schedule entry and each batch Send under OpImportData (the
// op string predates the streaming plane and is kept so seeded schedules
// replay unchanged). A faulted Send poisons the session — a lost or
// duplicated frame leaves a real framed stream desynchronized, so the
// sender must reopen and resume from the receiver's acked high-water mark,
// which is exactly the path the chaos harness needs to exercise.
func (p *faultyPeer) OpenImport(ctx context.Context, from string, round, fingerprint uint64, window int) (agent.ImportSession, error) {
	var sess agent.ImportSession
	err := p.net.apply(ctx, p.from, p.to, OpImportOpen, func() error {
		var ierr error
		sess, ierr = p.inner.OpenImport(ctx, from, round, fingerprint, window)
		return ierr
	})
	if err != nil {
		if sess != nil {
			sess.Abort()
		}
		return nil, err
	}
	return &faultySession{p: p, inner: sess}, nil
}

// faultySession injects per-batch faults into an open import stream.
type faultySession struct {
	p      *faultyPeer
	inner  agent.ImportSession
	broken bool
}

func (s *faultySession) HighWater() uint64 { return s.inner.HighWater() }

func (s *faultySession) Send(ctx context.Context, seq uint64, pairs []cache.KV) error {
	if s.broken {
		return fmt.Errorf("%w: stream %s->%s broken by injected fault", ErrInjected, s.p.from, s.p.to)
	}
	err := s.p.net.apply(ctx, s.p.from, s.p.to, OpImportData, func() error {
		// A Dup delivers the same seq twice; the receiver's high-water
		// check makes the replay a no-op, like TCP retransmission.
		return s.inner.Send(ctx, seq, pairs)
	})
	if err != nil {
		s.broken = true
	}
	return err
}

func (s *faultySession) Close(ctx context.Context) (agent.ImportSummary, error) {
	if s.broken {
		s.inner.Abort()
		return agent.ImportSummary{}, fmt.Errorf("%w: stream %s->%s broken by injected fault", ErrInjected, s.p.from, s.p.to)
	}
	return s.inner.Close(ctx)
}

func (s *faultySession) Abort() { s.inner.Abort() }

var _ agent.Peer = (*faultyPeer)(nil)

// Transport wraps an agent.Transport so every peer resolved through it
// injects the schedule's faults for the (from → peer) link. Each agent
// gets its own wrapper naming itself as the sender.
type Transport struct {
	net   *Network
	from  string
	inner agent.Transport
}

// WrapTransport builds the sending-side transport wrapper for one node.
func WrapTransport(n *Network, from string, inner agent.Transport) *Transport {
	return &Transport{net: n, from: from, inner: inner}
}

// Peer implements agent.Transport.
func (t *Transport) Peer(node string) (agent.Peer, error) {
	p, err := t.inner.Peer(node)
	if err != nil {
		return nil, err
	}
	return &faultyPeer{net: t.net, from: t.from, to: node, inner: p}, nil
}

var _ agent.Transport = (*Transport)(nil)

// faultyAgent applies the schedule to one Master → node link.
type faultyAgent struct {
	net      *Network
	from, to string
	inner    core.MasterAgent
}

// Node implements core.MasterAgent.
func (a *faultyAgent) Node() string { return a.inner.Node() }

// Score implements core.MasterAgent. Score cannot report failure (the
// interface returns no error), so only delays apply; drop-family verdicts
// return the empty report an unreachable node would yield.
func (a *faultyAgent) Score(ctx context.Context) agent.ScoreReport {
	var rep agent.ScoreReport
	err := a.net.apply(ctx, a.from, a.to, OpScore, func() error {
		rep = a.inner.Score(ctx)
		return nil
	})
	if err != nil {
		return agent.ScoreReport{Node: a.inner.Node()}
	}
	return rep
}

// SendMetadata implements core.MasterAgent.
func (a *faultyAgent) SendMetadata(ctx context.Context, round uint64, retained []string) error {
	return a.net.apply(ctx, a.from, a.to, OpSendMetadata, func() error {
		return a.inner.SendMetadata(ctx, round, retained)
	})
}

// ComputeTakes implements core.MasterAgent.
func (a *faultyAgent) ComputeTakes(ctx context.Context, round uint64) (agent.Takes, error) {
	var takes agent.Takes
	err := a.net.apply(ctx, a.from, a.to, OpComputeTakes, func() error {
		var ierr error
		takes, ierr = a.inner.ComputeTakes(ctx, round)
		return ierr
	})
	if err != nil {
		return nil, err
	}
	return takes, nil
}

// SendData implements core.MasterAgent.
func (a *faultyAgent) SendData(ctx context.Context, round uint64, target string, takes map[int]int) (agent.SendStats, error) {
	var sent agent.SendStats
	err := a.net.apply(ctx, a.from, a.to, OpSendData, func() error {
		var ierr error
		sent, ierr = a.inner.SendData(ctx, round, target, takes)
		return ierr
	})
	if err != nil {
		return sent, err
	}
	return sent, nil
}

// Release implements core.MasterAgent.
func (a *faultyAgent) Release(ctx context.Context, members []string) (int, error) {
	var n int
	err := a.net.apply(ctx, a.from, a.to, OpRelease, func() error {
		var ierr error
		n, ierr = a.inner.Release(ctx, members)
		return ierr
	})
	return n, err
}

var _ core.MasterAgent = (*faultyAgent)(nil)

// Directory wraps a core.Directory so the Master's commands inject the
// schedule's faults on the (from → node) links; from is conventionally
// "master".
type Directory struct {
	net   *Network
	from  string
	inner core.Directory
}

// WrapDirectory builds the Master-side directory wrapper.
func WrapDirectory(n *Network, from string, inner core.Directory) *Directory {
	return &Directory{net: n, from: from, inner: inner}
}

// Agent implements core.Directory.
func (d *Directory) Agent(node string) (core.MasterAgent, error) {
	ag, err := d.inner.Agent(node)
	if err != nil {
		return nil, err
	}
	return &faultyAgent{net: d.net, from: d.from, to: node, inner: ag}, nil
}

var _ core.Directory = (*Directory)(nil)
