package e2eharness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/memproto"
)

// WaitMemcachedReady polls addr with `version` round trips until the
// node answers or the timeout expires.
func WaitMemcachedReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		_ = conn.SetDeadline(time.Now().Add(time.Second))
		_, _ = conn.Write([]byte("version\r\n"))
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err == nil && strings.HasPrefix(line, "VERSION") {
			return nil
		}
		lastErr = fmt.Errorf("version probe: %q, %v", line, err)
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("node %s not ready after %v: %w", addr, timeout, lastErr)
}

// FetchExpvars downloads /debug/vars from a node's -debug-addr.
func FetchExpvars(debugAddr string) (map[string]json.RawMessage, error) {
	cl := http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/vars: %s", resp.Status)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	return vars, nil
}

// MigrationCounters decodes the elmem_migration expvar from a node's
// debug address.
func MigrationCounters(debugAddr string) (agent.MigrationCounters, error) {
	var c agent.MigrationCounters
	vars, err := FetchExpvars(debugAddr)
	if err != nil {
		return c, err
	}
	raw, ok := vars["elmem_migration"]
	if !ok {
		return c, fmt.Errorf("%s: no elmem_migration expvar", debugAddr)
	}
	err = json.Unmarshal(raw, &c)
	return c, err
}

// PollUntil re-evaluates cond every 25ms until it holds or the timeout
// expires; it reports whether cond ever held.
func PollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(25 * time.Millisecond)
	}
	return cond()
}

// Stats runs a raw `stats` round trip against a node's memcached port
// and returns the STAT pairs.
func Stats(addr string) (stats map[string]string, err error) {
	err = exchange(addr, 2*time.Second, []byte("stats\r\n"), func(rr *memproto.ReplyReader) error {
		stats, err = rr.ReadStats()
		return err
	})
	return stats, err
}

// RawGet fetches one key, returning the value and whether it was a hit.
func RawGet(addr, key string) (value []byte, hit bool, err error) {
	err = exchange(addr, 2*time.Second, []byte("get "+key+"\r\n"), func(rr *memproto.ReplyReader) error {
		values, err := rr.ReadValues()
		value, hit = values[key]
		return err
	})
	return value, hit, err
}

// RawSet stores one key with a memcached exptime and returns the reply
// line ("STORED", "NOT_STORED", ...); an error reply comes back as err.
func RawSet(addr, key string, val []byte, exptime int64) (reply string, err error) {
	err = exchange(addr, 10*time.Second, memproto.AppendSet(nil, key, 0, exptime, val, false), func(rr *memproto.ReplyReader) error {
		reply, err = rr.ReadSimple()
		return err
	})
	return reply, err
}

// exchange writes req to a node over a fresh connection and hands the
// reply to read. A fresh connection keeps a probe independent of
// client-side routing: it reads exactly one node.
func exchange(addr string, timeout time.Duration, req []byte, read func(*memproto.ReplyReader) error) error {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(req); err != nil {
		return err
	}
	return read(memproto.NewReplyReader(conn))
}
