package cache

import (
	"encoding/binary"
	"errors"
	"time"
)

// KV is a key/value/timestamp tuple shipped in migration phase 3.
type KV struct {
	// Key and Value carry the pair.
	Key   string `json:"key"`
	Value []byte `json:"value"`
	// Flags are the opaque client flags stored with the item; shipping them
	// keeps `set` flag semantics intact across a migration.
	Flags uint32 `json:"flags,omitempty"`
	// LastAccess preserves the MRU timestamp across the move so merged
	// hotness stays meaningful.
	LastAccess time.Time `json:"lastAccess"`
	// Expiry is the item's absolute expiry deadline (zero = never). Every
	// transport carries it — in-process, migration frames, and warm-restart
	// snapshots — so a TTL survives any move.
	Expiry time.Time `json:"expiresAt,omitempty"`
}

// errPairTruncated reports a pair record cut short of its declared lengths.
var errPairTruncated = errors.New("cache: truncated pair record")

// AppendPair appends p's binary record to b. This is the one pair layout
// migration frames and snapshot files share:
//
//	pair = keyLen(uvarint) key valLen(uvarint) val flags(u32 BE)
//	       access(i64 BE) expire(i64 BE)
//
// Times are unix nanos, with math.MinInt64 standing for the zero time.
func AppendPair(b []byte, p *KV) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Key)))
	b = append(b, p.Key...)
	b = binary.AppendUvarint(b, uint64(len(p.Value)))
	b = append(b, p.Value...)
	b = binary.BigEndian.AppendUint32(b, p.Flags)
	b = binary.BigEndian.AppendUint64(b, uint64(toNano(p.LastAccess)))
	return binary.BigEndian.AppendUint64(b, uint64(toNano(p.Expiry)))
}

// DecodePair parses one AppendPair record off the front of b and returns
// the bytes after it. The pair's Value aliases b, which must outlive it.
func DecodePair(b []byte) (p KV, rest []byte, err error) {
	key, b, ok := takePrefixed(b)
	if !ok {
		return KV{}, nil, errPairTruncated
	}
	val, b, ok := takePrefixed(b)
	if !ok || len(b) < 20 {
		return KV{}, nil, errPairTruncated
	}
	p = KV{
		Key:        string(key),
		Value:      val,
		Flags:      binary.BigEndian.Uint32(b),
		LastAccess: fromNano(int64(binary.BigEndian.Uint64(b[4:]))),
		Expiry:     fromNano(int64(binary.BigEndian.Uint64(b[12:]))),
	}
	return p, b[20:], nil
}

// takePrefixed splits a uvarint-length-prefixed field off the front of b.
func takePrefixed(b []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return b[w:end], b[end:], true
}
