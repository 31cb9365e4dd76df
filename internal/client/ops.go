package client

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/memproto"
)

// This file adds the rest of the memcached command set to the cluster
// client: TTL stores, conditional stores, value edits, counters, and
// touch. SetTTL is a set and follows Set's write plan; each other op
// routes to the key's owner under the current ring.

var (
	// ErrNotStored reports a failed conditional store (add/replace/
	// append/prepend).
	ErrNotStored = errors.New("client: not stored")
	// ErrCASConflict reports a cas rejected because the item changed.
	ErrCASConflict = errors.New("client: cas conflict")
	// ErrNotFound reports a missing key for cas/incr/decr/touch.
	ErrNotFound = errors.New("client: not found")
)

// storageOp issues one storage-family command and maps the reply.
func (c *Cluster) storageOp(verb, key string, exptime int64, value []byte, casToken uint64) error {
	owner, err := c.Owner(key)
	if err != nil {
		return err
	}
	return c.withConn(owner, func(conn *poolConn) error {
		var header string
		if verb == "cas" {
			header = fmt.Sprintf("cas %s 0 %d %d %d\r\n", key, exptime, len(value), casToken)
		} else {
			header = fmt.Sprintf("%s %s 0 %d %d\r\n", verb, key, exptime, len(value))
		}
		if err := conn.write(append(append([]byte(header), value...), '\r', '\n')); err != nil {
			return err
		}
		line, err := conn.reply.ReadSimple()
		if err != nil {
			return err
		}
		switch line {
		case "STORED":
			return nil
		case "NOT_STORED":
			return fmt.Errorf("%s %q: %w", verb, key, ErrNotStored)
		case "EXISTS":
			return fmt.Errorf("cas %q: %w", key, ErrCASConflict)
		case "NOT_FOUND":
			return fmt.Errorf("%s %q: %w", verb, key, ErrNotFound)
		default:
			return fmt.Errorf("client: %s %q: unexpected reply %q", verb, key, line)
		}
	})
}

// SetTTL stores the value with a memcached exptime (0 = never, ≤30 days =
// relative seconds, larger = absolute Unix time). Mid-handover it is
// dual-applied like Set, so a read through either owner sees it.
func (c *Cluster) SetTTL(key string, value []byte, exptime int64) error {
	return c.writeLegs(key, func(node string) error {
		return c.setOn(context.Background(), node, key, value, exptime)
	})
}

// Add stores only if the key is absent.
func (c *Cluster) Add(key string, value []byte, exptime int64) error {
	return c.storageOp("add", key, exptime, value, 0)
}

// Replace stores only if the key is present.
func (c *Cluster) Replace(key string, value []byte, exptime int64) error {
	return c.storageOp("replace", key, exptime, value, 0)
}

// Append concatenates data after the existing value.
func (c *Cluster) Append(key string, data []byte) error {
	return c.storageOp("append", key, 0, data, 0)
}

// Prepend concatenates data before the existing value.
func (c *Cluster) Prepend(key string, data []byte) error {
	return c.storageOp("prepend", key, 0, data, 0)
}

// CompareAndSwap stores only if the item's CAS token still matches.
func (c *Cluster) CompareAndSwap(key string, value []byte, exptime int64, casToken uint64) error {
	return c.storageOp("cas", key, exptime, value, casToken)
}

// GetWithCAS fetches one key with its CAS token. A miss returns
// (zero ValueCAS, false, nil).
func (c *Cluster) GetWithCAS(key string) (memproto.ValueCAS, bool, error) {
	owner, err := c.Owner(key)
	if err != nil {
		return memproto.ValueCAS{}, false, err
	}
	var (
		entry memproto.ValueCAS
		found bool
	)
	err = c.withConn(owner, func(conn *poolConn) error {
		if err := conn.write([]byte("gets " + key + "\r\n")); err != nil {
			return err
		}
		values, err := conn.reply.ReadValuesCAS()
		if err != nil {
			return err
		}
		entry, found = values[key]
		return nil
	})
	return entry, found, err
}

// arithOp issues incr/decr and parses the numeric reply.
func (c *Cluster) arithOp(verb, key string, delta uint64) (uint64, error) {
	owner, err := c.Owner(key)
	if err != nil {
		return 0, err
	}
	var out uint64
	err = c.withConn(owner, func(conn *poolConn) error {
		cmd := fmt.Sprintf("%s %s %d\r\n", verb, key, delta)
		if err := conn.write([]byte(cmd)); err != nil {
			return err
		}
		line, err := conn.reply.ReadSimple()
		if err != nil {
			return err
		}
		if line == "NOT_FOUND" {
			return fmt.Errorf("%s %q: %w", verb, key, ErrNotFound)
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return fmt.Errorf("client: %s %q: unexpected reply %q", verb, key, line)
		}
		out = v
		return nil
	})
	return out, err
}

// Incr adds delta to a numeric value, returning the new value.
func (c *Cluster) Incr(key string, delta uint64) (uint64, error) {
	return c.arithOp("incr", key, delta)
}

// Decr subtracts delta (clamped at zero), returning the new value.
func (c *Cluster) Decr(key string, delta uint64) (uint64, error) {
	return c.arithOp("decr", key, delta)
}

// Touch updates a key's expiry without fetching it.
func (c *Cluster) Touch(key string, exptime int64) error {
	owner, err := c.Owner(key)
	if err != nil {
		return err
	}
	return c.withConn(owner, func(conn *poolConn) error {
		cmd := fmt.Sprintf("touch %s %d\r\n", key, exptime)
		if err := conn.write([]byte(cmd)); err != nil {
			return err
		}
		line, err := conn.reply.ReadSimple()
		if err != nil {
			return err
		}
		switch line {
		case "TOUCHED":
			return nil
		case "NOT_FOUND":
			return fmt.Errorf("touch %q: %w", key, ErrNotFound)
		default:
			return fmt.Errorf("client: touch %q: unexpected reply %q", key, line)
		}
	})
}

// FlushAll drops every item on every member.
func (c *Cluster) FlushAll() error {
	for _, member := range c.Members() {
		err := c.withConn(member, func(conn *poolConn) error {
			if err := conn.write([]byte("flush_all\r\n")); err != nil {
				return err
			}
			line, err := conn.reply.ReadSimple()
			if err != nil {
				return err
			}
			if line != "OK" {
				return fmt.Errorf("client: flush_all on %s: unexpected reply %q", member, line)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
