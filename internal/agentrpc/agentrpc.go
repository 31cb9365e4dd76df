// Package agentrpc carries ElMem's migration traffic over TCP: Master →
// Agent commands (scoring, migration phases, release) and Agent → Agent
// pushes (metadata offers, data imports). The paper pipes metadata and
// data between nodes over ssh (Section III-D1); we use persistent TCP
// connections, newline-delimited JSON for the control ops and binary
// frames (frame.go) for the phase-1 metadata offers and the phase-3 import
// streams, which preserves the phase structure while staying
// dependency-free.
//
// The same wire protocol serves both directions: the Server exposes a
// node's *agent.Agent, the Client implements core.MasterAgent and
// agent.Peer, and the AddressBook maps node names to agent addresses,
// acting as the agent.Transport and core.Directory for TCP deployments.
package agentrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fusecache"
	"repro/internal/taskgroup"
)

// Op names one RPC operation.
type Op string

// The control-plane operations.
const (
	OpScore        Op = "score"
	OpSendMetadata Op = "send_metadata"
	OpComputeTakes Op = "compute_takes"
	OpSendData     Op = "send_data"
	OpRelease      Op = "release"
)

// ErrRemote wraps an error string returned by the remote agent.
var ErrRemote = errors.New("agentrpc: remote error")

// request is one wire frame from caller to agent.
type request struct {
	Op Op `json:"op"`

	// TimeoutMS carries the caller's remaining context deadline so the
	// remote agent bounds its own work; 0 means no deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`

	// SendMetadata, SendData and Release share Retained.
	Retained []string `json:"retained,omitempty"`
	// SendData.
	Target string      `json:"target,omitempty"`
	Takes  map[int]int `json:"takes,omitempty"`
}

// response is one wire frame back.
type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Score *agent.ScoreReport `json:"score,omitempty"`
	Takes agent.Takes        `json:"takes,omitempty"`
	Stats *agent.SendStats   `json:"stats,omitempty"`
	// Released is Release's dropped-item count.
	Released int `json:"released,omitempty"`
}

// Server exposes one node's Agent over TCP.
type Server struct {
	agent *agent.Agent
	ln    net.Listener
	log   *log.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts the RPC server on addr ("127.0.0.1:0" picks a port).
func Serve(addr string, a *agent.Agent, logger *log.Logger) (*Server, error) {
	if a == nil {
		return nil, errors.New("agentrpc: nil agent")
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agentrpc: listen %s: %w", addr, err)
	}
	s := &Server{agent: a, ln: ln, log: logger, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and joins its goroutines.
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
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
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

// serveConn multiplexes both wire protocols on one connection: binary
// frames start with the magic byte 0xEB (which can never begin a JSON
// value), everything else is a newline-delimited JSON request. Import
// batches are handed to a per-connection applier goroutine so
// BatchImport overlaps the network read of the next frame; any non-batch
// traffic first drains the applier (barrier) to keep request/response
// ordering intact.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 1<<20)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var wmu sync.Mutex
	imp := importApplier{agent: s.agent, bw: bw, wmu: &wmu}
	defer imp.stopApplier()
	var offer offerDecoder
	for {
		first, err := br.Peek(1)
		if err != nil {
			return
		}
		if first[0] == frameMagic {
			typ, payload, err := readFrame(br)
			if err != nil {
				s.log.Printf("agentrpc: bad frame: %v", err)
				return
			}
			if !s.serveFrame(&imp, &offer, bw, &wmu, typ, payload) {
				return
			}
			continue
		}
		imp.barrier()
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			s.log.Printf("agentrpc: bad request: %v", err)
			return
		}
		resp := s.dispatch(&req)
		data, err := json.Marshal(resp)
		if err != nil {
			return
		}
		wmu.Lock()
		_, werr := bw.Write(data)
		if werr == nil {
			werr = bw.WriteByte('\n')
		}
		if werr == nil {
			werr = bw.Flush()
		}
		wmu.Unlock()
		if werr != nil {
			return
		}
	}
}

// serveFrame handles one binary frame; false tears the connection down.
func (s *Server) serveFrame(imp *importApplier, offer *offerDecoder, bw *bufio.Writer, wmu *sync.Mutex, typ byte, payload []byte) bool {
	switch typ {
	case ftOfferMeta:
		final, derr := offer.frame(payload)
		putBuf(payload) // the decoded stamps are copies
		if derr == nil && !final {
			return true
		}
		imp.barrier()
		remoteErr := ""
		if derr != nil {
			remoteErr = derr.Error()
		} else if err := s.agent.OfferMetadata(context.Background(), offer.from, offer.lists); err != nil {
			remoteErr = err.Error()
		}
		*offer = offerDecoder{}
		ack := appendOfferAck(getBuf(), remoteErr)
		err := writeFrameLocked(wmu, bw, ftOfferAck, ack)
		putBuf(ack)
		return err == nil && derr == nil
	case ftImportOpen:
		imp.barrier()
		from, epoch, fp, _, derr := decodeImportOpen(payload)
		putBuf(payload)
		ack := getBuf()
		if derr != nil {
			ack = appendOpenAck(ack, 0, derr.Error())
		} else {
			ack = appendOpenAck(ack, s.agent.ImportOpen(from, epoch, fp), "")
		}
		err := writeFrameLocked(wmu, bw, ftOpenAck, ack)
		putBuf(ack)
		return err == nil && derr == nil
	case ftImportBatch:
		from, epoch, seq, pairs, derr := decodeImportBatch(payload)
		if derr != nil {
			putBuf(payload)
			s.log.Printf("agentrpc: bad import batch: %v", derr)
			return false
		}
		imp.enqueue(importJob{payload: payload, from: from, epoch: epoch, seq: seq, pairs: pairs})
		return true
	default:
		putBuf(payload)
		s.log.Printf("agentrpc: unknown frame type %d", typ)
		return false
	}
}

func writeFrameLocked(wmu *sync.Mutex, bw *bufio.Writer, typ byte, payload []byte) error {
	wmu.Lock()
	defer wmu.Unlock()
	return writeFrame(bw, typ, payload)
}

// importJob is one decoded batch frame awaiting application; payload is
// the pooled frame buffer the pairs' values alias.
type importJob struct {
	payload []byte
	from    string
	epoch   uint64
	seq     uint64
	pairs   []cache.KV
	barrier chan struct{} // when non-nil: a sync point, no batch
}

// importApplier applies batch frames and writes their acks on a
// per-connection goroutine, started lazily on the first batch, so the
// reader can pull the next frame off the wire while BatchImport runs. The
// small queue keeps at most a couple of decoded frames alive — the
// receiver-side analogue of the sender's bounded window.
type importApplier struct {
	agent *agent.Agent
	bw    *bufio.Writer
	wmu   *sync.Mutex
	jobs  chan importJob
	wg    sync.WaitGroup
}

func (ia *importApplier) enqueue(j importJob) {
	if ia.jobs == nil {
		ia.jobs = make(chan importJob, 2)
		ia.wg.Add(1)
		go ia.run()
	}
	ia.jobs <- j
}

// barrier waits until every queued batch has been applied and acked, so
// a following response cannot overtake an ack or race the writer.
func (ia *importApplier) barrier() {
	if ia.jobs == nil {
		return
	}
	ch := make(chan struct{})
	ia.jobs <- importJob{barrier: ch}
	<-ch
}

func (ia *importApplier) stopApplier() {
	if ia.jobs != nil {
		close(ia.jobs)
		ia.wg.Wait()
	}
}

func (ia *importApplier) run() {
	defer ia.wg.Done()
	for j := range ia.jobs {
		if j.barrier != nil {
			close(j.barrier)
			continue
		}
		hw, n, err := ia.agent.ImportFrame(j.from, j.epoch, j.seq, j.pairs)
		ack := getBuf()
		if err != nil {
			ack = appendBatchAck(ack, j.seq, hw, n, err.Error())
		} else {
			ack = appendBatchAck(ack, j.seq, hw, n, "")
		}
		// A failed ack write means the connection is dying; the reader
		// will notice on its next read, so just keep draining.
		_ = writeFrameLocked(ia.wmu, ia.bw, ftBatchAck, ack)
		putBuf(ack)
		putBuf(j.payload)
	}
}

func (s *Server) dispatch(req *request) *response {
	// Rebuild the caller's deadline from the wire so the agent's own loops
	// (per-target pushes, per-batch transfers) stop when the Master's phase
	// budget is spent, even though TCP cannot carry a live cancel signal.
	ctx := context.Background()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	switch req.Op {
	case OpScore:
		rep := s.agent.Score(ctx)
		return &response{OK: true, Score: &rep}
	case OpSendMetadata:
		if err := s.agent.SendMetadata(ctx, req.Retained); err != nil {
			return errResponse(err)
		}
		return &response{OK: true}
	case OpComputeTakes:
		takes, err := s.agent.ComputeTakes(ctx)
		if err != nil {
			return errResponse(err)
		}
		return &response{OK: true, Takes: takes}
	case OpSendData:
		stats, err := s.agent.SendData(ctx, req.Target, req.Takes, req.Retained)
		if err != nil {
			return errResponse(err)
		}
		return &response{OK: true, Stats: &stats}
	case OpRelease:
		n, err := s.agent.Release(ctx, req.Retained)
		if err != nil {
			return errResponse(err)
		}
		return &response{OK: true, Released: n}
	default:
		return &response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func errResponse(err error) *response {
	return &response{Error: err.Error()}
}

// Client talks to one remote Agent. It implements core.MasterAgent and
// agent.Peer over a single persistent connection with serialized calls,
// redialling transparently after failures.
type Client struct {
	node        string
	addr        string
	dialTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewClient creates a client for the agent of node (its name) at addr.
func NewClient(node, addr string) *Client {
	return &Client{node: node, addr: addr, dialTimeout: 2 * time.Second}
}

// Node returns the remote node's name.
func (c *Client) Node() string { return c.node }

// Close drops the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
}

// ensureConnLocked dials if no connection is up.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return fmt.Errorf("agentrpc: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<20)
	c.bw = bufio.NewWriterSize(conn, 64<<10)
	return nil
}

// call performs one serialized RPC round trip. The context's deadline is
// propagated on the wire (TimeoutMS) and applied to the connection; live
// cancellation closes the connection so a blocked read aborts immediately.
// Transport failures come back retryable; errors the remote agent itself
// reported are marked taskgroup.Permanent, because the operation executed
// and failed deterministically.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConnLocked(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining > 0 {
			req.TimeoutMS = int64(remaining / time.Millisecond)
		}
	}
	stop := c.armLocked(ctx)
	defer func() {
		if !stop() {
			c.dropLocked()
		}
	}()
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("agentrpc: encode: %w", err)
	}
	data = append(data, '\n')
	if _, err = c.bw.Write(data); err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.dropLocked()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("agentrpc: send to %s: %w", c.addr, err)
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.dropLocked()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("agentrpc: recv from %s: %w", c.addr, err)
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		c.dropLocked()
		return nil, fmt.Errorf("agentrpc: recv from %s: %w", c.addr, err)
	}
	if !resp.OK {
		return nil, taskgroup.Permanent(fmt.Errorf("%w: %s", ErrRemote, resp.Error))
	}
	return &resp, nil
}

// armLocked applies ctx's deadline (or none) to the connection and
// arranges for cancellation to close it, so a blocked write or read aborts
// at once and the connection is redialled later. stop reports false once
// that has happened. Callers hold c.mu with a connection up.
func (c *Client) armLocked(ctx context.Context) (stop func() bool) {
	deadline, _ := ctx.Deadline()
	_ = c.conn.SetDeadline(deadline)
	conn := c.conn
	return context.AfterFunc(ctx, func() { _ = conn.Close() })
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.br, c.bw = nil, nil
	}
}

// Score implements core.MasterAgent.
func (c *Client) Score(ctx context.Context) agent.ScoreReport {
	resp, err := c.call(ctx, &request{Op: OpScore})
	if err != nil || resp.Score == nil {
		return agent.ScoreReport{Node: c.node}
	}
	return *resp.Score
}

// SendMetadata implements core.MasterAgent.
func (c *Client) SendMetadata(ctx context.Context, retained []string) error {
	_, err := c.call(ctx, &request{Op: OpSendMetadata, Retained: retained})
	return err
}

// ComputeTakes implements core.MasterAgent.
func (c *Client) ComputeTakes(ctx context.Context) (agent.Takes, error) {
	resp, err := c.call(ctx, &request{Op: OpComputeTakes})
	if err != nil {
		// Map the remote no-metadata condition back onto the sentinel so
		// the Master's errors.Is handling works across the wire.
		if errors.Is(err, ErrRemote) && containsNoMetadata(err) {
			return nil, agent.ErrNoMetadata
		}
		return nil, err
	}
	return resp.Takes, nil
}

func containsNoMetadata(err error) bool {
	return err != nil && strings.Contains(err.Error(), agent.ErrNoMetadata.Error())
}

// SendData implements core.MasterAgent.
func (c *Client) SendData(ctx context.Context, target string, takes map[int]int, retained []string) (agent.SendStats, error) {
	resp, err := c.call(ctx, &request{Op: OpSendData, Target: target, Takes: takes, Retained: retained})
	if err != nil {
		return agent.SendStats{}, err
	}
	if resp.Stats == nil {
		return agent.SendStats{}, nil
	}
	return *resp.Stats, nil
}

// Release implements core.MasterAgent.
func (c *Client) Release(ctx context.Context, members []string) (int, error) {
	resp, err := c.call(ctx, &request{Op: OpRelease, Retained: members})
	if err != nil {
		return 0, err
	}
	return resp.Released, nil
}

// OfferMetadata implements agent.Peer: the lists go out as offerMeta
// frames and the receiver answers the final one with an offerAck. Like a
// JSON call, a transport failure is retryable and an error the remote
// agent reported is taskgroup.Permanent.
func (c *Client) OfferMetadata(ctx context.Context, from string, lists map[int]fusecache.List) error {
	return c.offer(ctx, from, lists, maxFramePayload)
}

// offer is OfferMetadata with the frame size cap as a parameter, so tests
// can force an offer across several frames.
func (c *Client) offer(ctx context.Context, from string, lists map[int]fusecache.List, maxPayload int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConnLocked(); err != nil {
		return err
	}
	stop := c.armLocked(ctx)
	defer func() {
		if !stop() {
			c.dropLocked()
		}
	}()
	fail := func(err error) error {
		c.dropLocked()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("agentrpc: offer metadata to %s: %w", c.addr, err)
	}
	err := offerFrames(from, lists, maxPayload, func(payload []byte) error {
		return writeFrame(c.bw, ftOfferMeta, payload)
	})
	if err != nil {
		return fail(err)
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return fail(err)
	}
	remoteErr, err := decodeOfferAck(payload)
	putBuf(payload)
	if err == nil && typ != ftOfferAck {
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		return fail(err)
	}
	if remoteErr != "" {
		return taskgroup.Permanent(fmt.Errorf("%w: %s", ErrRemote, remoteErr))
	}
	return nil
}

// OpenImport implements agent.Peer: it opens a windowed binary import
// stream on the persistent connection. The client mutex is held for the
// whole session (sessions and control calls are serialized), released by
// Close or Abort. A peer that cannot answer the open frame — unreachable,
// or not speaking this frame version — surfaces as an ordinary retryable
// transport error and the connection is dropped.
func (c *Client) OpenImport(ctx context.Context, from string, epoch, fingerprint uint64, window int) (agent.ImportSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if window < 1 {
		window = 1
	}
	c.mu.Lock()
	opened := false
	defer func() {
		if !opened {
			c.mu.Unlock()
		}
	}()
	if err := c.ensureConnLocked(); err != nil {
		return nil, err
	}
	stop := c.armLocked(ctx)
	fail := func(err error) error {
		stop()
		c.dropLocked() // the stream state is unknown: start clean next time
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	buf := getBuf()
	buf = appendImportOpen(buf, from, epoch, fingerprint, window)
	err := writeFrame(c.bw, ftImportOpen, buf)
	wire := int64(len(buf) + frameHeaderLen)
	putBuf(buf)
	if err != nil {
		return nil, fail(fmt.Errorf("agentrpc: open import to %s: %w", c.addr, err))
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return nil, fail(fmt.Errorf("agentrpc: open import to %s: %w", c.addr, err))
	}
	if typ != ftOpenAck {
		putBuf(payload)
		return nil, fail(fmt.Errorf("agentrpc: open import to %s: unexpected frame type %d", c.addr, typ))
	}
	hw, remoteErr, derr := decodeOpenAck(payload)
	putBuf(payload)
	if derr != nil {
		return nil, fail(fmt.Errorf("agentrpc: open import to %s: %w", c.addr, derr))
	}
	if remoteErr != "" {
		return nil, fail(fmt.Errorf("%w: %s", ErrRemote, remoteErr))
	}
	opened = true
	return &importSession{c: c, stop: stop, from: from, epoch: epoch, window: window, hw: hw, wire: wire}, nil
}

// importSession is one open binary stream. It is single-goroutine (the
// sender's push loop) and holds the client mutex for its lifetime: Send
// pipelines frames until the window fills, then absorbs backpressure by
// reading one ack inline; Close drains the remaining acks. TCP plus the
// server's in-order applier guarantee acks arrive in sequence order.
type importSession struct {
	c      *Client
	stop   func() bool
	from   string
	epoch  uint64
	window int

	outstanding int
	hw          uint64
	imported    int
	wire        int64
	done        bool
}

func (s *importSession) HighWater() uint64 { return s.hw }

func (s *importSession) Send(ctx context.Context, seq uint64, pairs []cache.KV) error {
	if s.done {
		return errors.New("agentrpc: import session is closed")
	}
	if err := ctx.Err(); err != nil {
		s.end(true)
		return err
	}
	for s.outstanding >= s.window {
		if err := s.readAck(); err != nil {
			s.end(true)
			return err
		}
	}
	buf := getBuf()
	buf = appendImportBatch(buf, s.from, s.epoch, seq, pairs)
	err := writeFrame(s.c.bw, ftImportBatch, buf)
	s.wire += int64(len(buf) + frameHeaderLen)
	putBuf(buf)
	if err != nil {
		s.end(true)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("agentrpc: send batch to %s: %w", s.c.addr, err)
	}
	s.outstanding++
	return nil
}

func (s *importSession) readAck() error {
	typ, payload, err := readFrame(s.c.br)
	if err != nil {
		return fmt.Errorf("agentrpc: recv ack from %s: %w", s.c.addr, err)
	}
	if typ != ftBatchAck {
		putBuf(payload)
		return fmt.Errorf("agentrpc: unexpected frame type %d awaiting ack", typ)
	}
	_, hw, imported, remoteErr, derr := decodeBatchAck(payload)
	putBuf(payload)
	if derr != nil {
		return fmt.Errorf("agentrpc: recv ack from %s: %w", s.c.addr, derr)
	}
	s.outstanding--
	if remoteErr != "" {
		return fmt.Errorf("%w: %s", ErrRemote, remoteErr)
	}
	s.hw = hw
	s.imported += imported
	return nil
}

func (s *importSession) Close(ctx context.Context) (agent.ImportSummary, error) {
	if s.done {
		return agent.ImportSummary{}, errors.New("agentrpc: import session is closed")
	}
	for s.outstanding > 0 {
		if err := s.readAck(); err != nil {
			s.end(true)
			if ctxErr := ctx.Err(); ctxErr != nil {
				return agent.ImportSummary{}, ctxErr
			}
			return agent.ImportSummary{}, err
		}
	}
	s.end(false)
	return agent.ImportSummary{HighWater: s.hw, Imported: s.imported, WireBytes: s.wire}, nil
}

func (s *importSession) Abort() {
	if !s.done {
		// The stream may hold unacknowledged frames; the connection is no
		// longer in a known state, so drop it.
		s.end(true)
	}
}

// end tears the session down and releases the client: drop discards the
// connection (after a failure it may be desynchronized); otherwise it is
// kept for the next exchange.
func (s *importSession) end(drop bool) {
	s.done = true
	if !s.stop() {
		drop = true // ctx fired: the socket was closed under us
	}
	if drop {
		s.c.dropLocked()
	} else if s.c.conn != nil {
		_ = s.c.conn.SetDeadline(time.Time{})
	}
	s.c.mu.Unlock()
}

var _ agent.Peer = (*Client)(nil)

// AddressBook maps node names to their agent RPC addresses. It implements
// agent.Transport (peer dialling for Agents) and serves as the Master's
// core.Directory in TCP deployments. It is safe for concurrent use.
type AddressBook struct {
	mu      sync.RWMutex
	addrs   map[string]string
	clients map[string]*Client
}

// NewAddressBook creates an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{
		addrs:   make(map[string]string),
		clients: make(map[string]*Client),
	}
}

// Register maps a node name to its agent address.
func (b *AddressBook) Register(node, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[node] = addr
	delete(b.clients, node) // force re-dial at the new address
}

// Deregister removes a node.
func (b *AddressBook) Deregister(node string) {
	b.mu.Lock()
	cl := b.clients[node]
	delete(b.addrs, node)
	delete(b.clients, node)
	b.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// client returns (creating if needed) the cached client for node.
func (b *AddressBook) client(node string) (*Client, error) {
	b.mu.RLock()
	cl, ok := b.clients[node]
	b.mu.RUnlock()
	if ok {
		return cl, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cl, ok := b.clients[node]; ok {
		return cl, nil
	}
	addr, ok := b.addrs[node]
	if !ok {
		return nil, fmt.Errorf("%w: %q", agent.ErrUnknownPeer, node)
	}
	cl = NewClient(node, addr)
	b.clients[node] = cl
	return cl, nil
}

// Peer implements agent.Transport.
func (b *AddressBook) Peer(node string) (agent.Peer, error) {
	return b.client(node)
}

// Agent implements core.Directory (returns a core.MasterAgent).
func (b *AddressBook) Agent(node string) (*Client, error) {
	return b.client(node)
}

// Close drops every cached client connection.
func (b *AddressBook) Close() {
	b.mu.Lock()
	clients := make([]*Client, 0, len(b.clients))
	for _, cl := range b.clients {
		clients = append(clients, cl)
	}
	b.clients = make(map[string]*Client)
	b.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
}

var _ agent.Transport = (*AddressBook)(nil)

// Directory adapts an AddressBook to core.Directory, giving the Master
// TCP reach to every agent.
type Directory struct {
	// Book is the backing address book.
	Book *AddressBook
}

// Agent implements core.Directory.
func (d Directory) Agent(node string) (core.MasterAgent, error) {
	return d.Book.Agent(node)
}

var (
	_ core.Directory   = Directory{}
	_ core.MasterAgent = (*Client)(nil)
)
