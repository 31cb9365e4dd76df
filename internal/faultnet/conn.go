package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This file is the byte layer: faults applied to real wire traffic. Proxy
// interposes a TCP hop between a client and a server — the way the
// invariant tests inject faults under the agentrpc transport and the
// memcached data path without touching either endpoint.
//
// Byte-layer ops in the event log: "fwd" (client→server chunks) and "rsp"
// (server→client chunks).

// throttledWrite paces p onto w in 1 KiB slices at roughly bps bytes per
// second — the slow-node fault: the node works, just slowly.
func throttledWrite(w io.Writer, p []byte, bps int) (int, error) {
	const slice = 1 << 10
	written := 0
	for written < len(p) {
		end := written + slice
		if end > len(p) {
			end = len(p)
		}
		n, err := w.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
		time.Sleep(time.Duration(float64(n) / float64(bps) * float64(time.Second)))
	}
	return written, nil
}

// Proxy is a faulty TCP hop: it listens on its own address, dials the
// target for every accepted connection, and forwards chunks in both
// directions under the schedule. Request chunks run on (from→to, "fwd");
// reply chunks on (to→from, "rsp"). Dropping a reply chunk closes both
// sides — the caller sees a dead connection after the server already
// executed, which is how real networks manufacture duplicate RPCs.
type Proxy struct {
	netw     *Network
	from, to string
	target   string
	ln       net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy starts a proxy for the from→to link in front of target
// ("host:port"). Callers dial Addr() instead of the target.
func NewProxy(n *Network, from, to, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: proxy listen: %w", err)
	}
	p := &Proxy{netw: n, from: from, to: to, target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops the proxy and severs every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			_ = conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			_ = upstream.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(conn, upstream, p.from, p.to, "fwd")
		go p.pipe(upstream, conn, p.to, p.from, "rsp")
	}
}

// dropPipe removes a finished pipe's conns from the tracking map.
func (p *Proxy) dropPipe(a, b net.Conn) {
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
	_ = a.Close()
	_ = b.Close()
}

// pipe forwards src→dst chunk by chunk under the schedule. Any injected
// fault tears the proxied connection down (both directions), because a
// half-dead proxied stream otherwise wedges callers that have no
// application-level timeout.
func (p *Proxy) pipe(src, dst net.Conn, from, to, op string) {
	defer p.wg.Done()
	defer p.dropPipe(src, dst)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			d := p.netw.Decide(from, to, op, true)
			switch d.Action {
			case ActPartition, ActDrop, ActReset:
				return // chunk swallowed, both sides closed by the deferred drop
			case ActPartialWrite:
				_, _ = dst.Write(buf[:n/2])
				return
			case ActDelay:
				time.Sleep(d.Delay)
			}
			var werr error
			if d.ThrottleBPS > 0 {
				_, werr = throttledWrite(dst, buf[:n], d.ThrottleBPS)
			} else {
				_, werr = dst.Write(buf[:n])
			}
			if werr != nil {
				return
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return
			}
			return
		}
	}
}
