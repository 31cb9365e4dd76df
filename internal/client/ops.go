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

// replyErr maps the single-line reply to verb on key: nil for the line
// that acks the op, ErrNotStored, ErrCASConflict or ErrNotFound for
// memcached's refusals, and an error naming any other line. The ack of
// incr and decr is the new value, which they ask for with numberAck.
func replyErr(verb, key, ack, line string) error {
	acked := line == ack
	if ack == numberAck {
		_, err := strconv.ParseUint(line, 10, 64)
		acked = err == nil
	}
	switch {
	case acked:
		return nil
	case line == "NOT_STORED":
		return fmt.Errorf("%s %q: %w", verb, key, ErrNotStored)
	case line == "EXISTS":
		return fmt.Errorf("%s %q: %w", verb, key, ErrCASConflict)
	case line == "NOT_FOUND":
		return fmt.Errorf("%s %q: %w", verb, key, ErrNotFound)
	}
	return fmt.Errorf("client: %s %q: unexpected reply %q", verb, key, line)
}

// numberAck is the ack of incr and decr: a decimal number.
const numberAck = ""

// refused reports whether err is one of memcached's refusals, which
// replyErr maps from a complete reply line.
func refused(err error) bool {
	return errors.Is(err, ErrNotStored) || errors.Is(err, ErrCASConflict) || errors.Is(err, ErrNotFound)
}

// exchange writes the request encoded in conn.wbuf, reads its single-line
// reply and maps it with replyErr.
func (conn *poolConn) exchange(verb, key, ack string) (string, error) {
	if err := conn.write(conn.wbuf); err != nil {
		return "", err
	}
	line, err := conn.reply.ReadSimple()
	if err != nil {
		return "", err
	}
	return line, replyErr(verb, key, ack, line)
}

// ownerOp runs one single-line exchange with the key's owner: encode
// appends the request to the connection's buffer, and the reply maps
// through replyErr. It returns the reply line.
func (c *Cluster) ownerOp(verb, key, ack string, encode func(dst []byte) []byte) (string, error) {
	owner, err := c.Owner(key)
	if err != nil {
		return "", err
	}
	var line string
	err = c.withConn(owner, func(conn *poolConn) error {
		conn.wbuf = encode(conn.wbuf[:0])
		var err error
		line, err = conn.exchange(verb, key, ack)
		return err
	})
	return line, err
}

// storageOp issues one storage-family command on the key's owner; cas
// passes its token in extra.
func (c *Cluster) storageOp(verb, key string, exptime int64, value []byte, extra ...uint64) error {
	_, err := c.ownerOp(verb, key, "STORED", func(dst []byte) []byte {
		return memproto.AppendStore(dst, verb, key, 0, exptime, value, false, extra...)
	})
	return err
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
	return c.storageOp("add", key, exptime, value)
}

// Replace stores only if the key is present.
func (c *Cluster) Replace(key string, value []byte, exptime int64) error {
	return c.storageOp("replace", key, exptime, value)
}

// Append concatenates data after the existing value.
func (c *Cluster) Append(key string, data []byte) error {
	return c.storageOp("append", key, 0, data)
}

// Prepend concatenates data before the existing value.
func (c *Cluster) Prepend(key string, data []byte) error {
	return c.storageOp("prepend", key, 0, data)
}

// CompareAndSwap stores only if the item's CAS token still matches.
func (c *Cluster) CompareAndSwap(key string, value []byte, exptime int64, casToken uint64) error {
	return c.storageOp("cas", key, exptime, value, casToken)
}

// GetWithCAS fetches one key with its CAS token. A miss returns
// (zero ValueCAS, false, nil).
func (c *Cluster) GetWithCAS(key string) (entry memproto.ValueCAS, found bool, err error) {
	owner, err := c.Owner(key)
	if err != nil {
		return entry, false, err
	}
	err = c.withConn(owner, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendLine(conn.wbuf[:0], "gets", key)
		if err := conn.write(conn.wbuf); err != nil {
			return err
		}
		values, err := conn.reply.ReadValuesCAS()
		entry, found = values[key]
		return err
	})
	return entry, found, err
}

// arithOp issues incr/decr and parses the numeric reply.
func (c *Cluster) arithOp(verb, key string, delta uint64) (uint64, error) {
	line, err := c.ownerOp(verb, key, numberAck, func(dst []byte) []byte {
		return memproto.AppendArith(dst, verb, key, delta, false)
	})
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(line, 10, 64)
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
	_, err := c.ownerOp("touch", key, "TOUCHED", func(dst []byte) []byte {
		return memproto.AppendTouch(dst, key, exptime, false)
	})
	return err
}

// FlushAll drops every item on every member.
func (c *Cluster) FlushAll() error {
	for _, member := range c.Members() {
		err := c.withConn(member, func(conn *poolConn) error {
			conn.wbuf = memproto.AppendLine(conn.wbuf[:0], "flush_all")
			_, err := conn.exchange("flush_all", member, "OK")
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
