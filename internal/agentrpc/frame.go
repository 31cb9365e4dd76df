package agentrpc

// The agent wire: every message on an agent connection is one
// length-prefixed binary frame:
//
//	frame = magic(0xEB) version(4) type(1) payloadLen(u32 BE) payload
//
// A peer of another version is refused by readFrame, with no fallback:
// version 2 added pair expiry, 3 the offer's round, and 4 made the
// control calls frames and gave every reply one status. Frame payload
// buffers are pooled (sync.Pool) on both sides, and decoded values alias
// the frame buffer (BatchImport copies into slab chunks), so a
// steady-state import stream allocates only keys.
//
// Frame types:
//
//	call        c→s  JSON request: op, deadline, round and op arguments
//	reply       s→c  status, JSON response
//	importOpen  c→s  from, round, fingerprint, window
//	openAck     s→c  status, highWater
//	importBatch c→s  from, round, seq, pairs (coldest-first)
//	batchAck    s→c  status, seq, highWater, imported
//	offerMeta   c→s  from, round, final, classes (u32), per class: classID, count (u32), stamps
//	offerAck    s→c  status
//
// Every reply and ack starts with a status byte: 0 is success and the
// body follows; any other byte is an error code (statusErrs) followed by
// the error text, so an agent sentinel keeps its identity across TCP.
// Control calls are low-volume and keep JSON bodies; the bulk traffic is
// binary. Pairs inside a batch frame are cache.AppendPair records, the
// layout snapshot files share.
//
// A stream is (from, round), the round naming the scaling action. Acks
// carry the receiver's applied-sequence high-water mark, which is what
// makes a retried send resumable: see agent.ImportOpen/ImportFrame.
//
// An offer is the per-class MRU timestamp lists (hottest first) a sender
// hands one target in phase 1 — hotness only, no keys, because FuseCache
// reads nothing else. Within a class the first stamp is a zigzag varint
// and each following one a uvarint delta below its predecessor, so a
// decoded list is non-increasing by construction and a stamp costs one to
// three bytes. Classes ascend; a list too long for one frame continues as
// the first class of the next frame, and the receiver answers the frame
// flagged final with one offerAck.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/fusecache"
)

const (
	frameMagic     = 0xEB
	frameVersion   = 4
	frameHeaderLen = 7 // magic + version + type + u32 payload length

	// maxFramePayload is a sanity cap protecting both sides from a
	// corrupt or hostile length prefix. Batches are bounded far below it
	// (WithBatchBytes, default 256 KiB).
	maxFramePayload = 64 << 20

	// minPairLen is the smallest pair record: two empty length prefixes,
	// flags, and the two timestamps.
	minPairLen = 2 + 4 + 8 + 8

	// maxOfferClass bounds an offered class ID: every slab class is a
	// distinct 8-byte-aligned chunk size no larger than a page.
	maxOfferClass = cache.PageSize / 8

	// offerSegMin and offerSegMax bound the head of an offer's class
	// segment: the class ID, its u32 stamp count and the first stamp.
	offerSegMin = 1 + 4 + 1
	offerSegMax = binary.MaxVarintLen32 + 4 + binary.MaxVarintLen64
)

// The frame types.
const (
	ftImportOpen byte = iota + 1
	ftOpenAck
	ftImportBatch
	ftBatchAck
	ftOfferMeta
	ftOfferAck
	ftCall
	ftReply
)

var errFrameTruncated = errors.New("agentrpc: truncated frame payload")

// statusOK opens every successful reply and ack; any other status byte is
// an error code, followed by the error text. statusOther is an error that
// is none of the sentinels in statusErrs.
const (
	statusOK    = 0
	statusOther = 1
)

// statusErrs maps an error code to the agent sentinel it carries.
var statusErrs = [...]error{
	2: agent.ErrUnknownPeer,
	3: agent.ErrNoMetadata,
	4: agent.ErrNoPicks,
	5: agent.ErrStaleRound,
}

// remoteError is an error the remote agent reported. It is ErrRemote and,
// by its code, the agent sentinel the remote error wrapped.
type remoteError struct {
	code byte
	msg  string
}

func (e *remoteError) Error() string { return ErrRemote.Error() + ": " + e.msg }

func (e *remoteError) Is(target error) bool {
	return target == ErrRemote || (target != nil && target == statusErrs[e.code])
}

// appendStatus appends err's status: statusOK for nil, else its code and
// text.
func appendStatus(b []byte, err error) []byte {
	if err == nil {
		return append(b, statusOK)
	}
	code := byte(statusOther)
	for c, sentinel := range statusErrs {
		if sentinel != nil && errors.Is(err, sentinel) {
			code = byte(c)
			break
		}
	}
	return append(append(b, code), err.Error()...)
}

// splitStatus splits a reply or ack payload's status off: on success it
// returns the body that follows, else the remote error. err reports a
// payload that carries no valid status.
func splitStatus(payload []byte) (body []byte, remote, err error) {
	if len(payload) == 0 {
		return nil, nil, errFrameTruncated
	}
	code := payload[0]
	switch {
	case code == statusOK:
		return payload[1:], nil, nil
	case int(code) >= len(statusErrs):
		return nil, nil, fmt.Errorf("agentrpc: unknown status %d", code)
	}
	return nil, &remoteError{code: code, msg: string(payload[1:])}, nil
}

// bufPool recycles frame payload buffers across encodes and decodes.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxFramePayload {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// writeFrame frames and flushes one payload. Callers serialize access to
// w themselves.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = typ
	binary.BigEndian.PutUint32(hdr[3:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame, returning its type and pooled payload; the
// caller must putBuf the payload when done with it.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameMagic {
		return 0, nil, fmt.Errorf("agentrpc: bad frame magic 0x%02x", hdr[0])
	}
	if hdr[1] != frameVersion {
		return 0, nil, fmt.Errorf("agentrpc: unsupported frame version %d", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[3:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("agentrpc: frame payload %d exceeds cap %d", n, maxFramePayload)
	}
	buf := getBuf()
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return 0, nil, err
	}
	return hdr[2], buf, nil
}

// cursor is a bounds-checked payload reader.
type cursor struct{ b []byte }

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, errFrameTruncated
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || n > len(c.b) {
		return nil, errFrameTruncated
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// --- importOpen ---

func appendImportOpen(b []byte, from string, round, fp uint64, window int) []byte {
	b = appendStr(b, from)
	b = binary.AppendUvarint(b, round)
	b = binary.AppendUvarint(b, fp)
	b = binary.AppendUvarint(b, uint64(window))
	return b
}

func decodeImportOpen(payload []byte) (from string, round, fp uint64, window int, err error) {
	c := cursor{payload}
	if from, err = c.str(); err != nil {
		return
	}
	if round, err = c.uvarint(); err != nil {
		return
	}
	if fp, err = c.uvarint(); err != nil {
		return
	}
	w, err := c.uvarint()
	if err != nil {
		return
	}
	window = int(w)
	return
}

// --- openAck / batchAck ---

func appendOpenAck(b []byte, highWater uint64, err error) []byte {
	if b = appendStatus(b, err); err != nil {
		return b
	}
	return binary.AppendUvarint(b, highWater)
}

func decodeOpenAck(payload []byte) (highWater uint64, remote, err error) {
	body, remote, err := splitStatus(payload)
	if err != nil || remote != nil {
		return 0, remote, err
	}
	c := cursor{body}
	highWater, err = c.uvarint()
	return highWater, nil, err
}

func appendBatchAck(b []byte, seq, highWater uint64, imported int, err error) []byte {
	if b = appendStatus(b, err); err != nil {
		return b
	}
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, highWater)
	return binary.AppendUvarint(b, uint64(imported))
}

func decodeBatchAck(payload []byte) (seq, highWater uint64, imported int, remote, err error) {
	body, remote, err := splitStatus(payload)
	if err != nil || remote != nil {
		return 0, 0, 0, remote, err
	}
	c := cursor{body}
	if seq, err = c.uvarint(); err != nil {
		return 0, 0, 0, nil, err
	}
	if highWater, err = c.uvarint(); err != nil {
		return 0, 0, 0, nil, err
	}
	n, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return seq, highWater, int(n), nil, nil
}

// --- importBatch ---

func appendImportBatch(b []byte, from string, round, seq uint64, pairs []cache.KV) []byte {
	b = appendStr(b, from)
	b = binary.AppendUvarint(b, round)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for i := range pairs {
		b = cache.AppendPair(b, &pairs[i])
	}
	return b
}

// decodeImportBatch parses a batch frame. The returned pairs' keys and
// values alias payload, which therefore must outlive them (the server
// recycles it only after BatchImport copied them into the cache).
func decodeImportBatch(payload []byte) (from string, round, seq uint64, pairs []cache.KV, err error) {
	c := cursor{payload}
	if from, err = c.str(); err != nil {
		return
	}
	if round, err = c.uvarint(); err != nil {
		return
	}
	if seq, err = c.uvarint(); err != nil {
		return
	}
	n, err := c.uvarint()
	if err != nil {
		return
	}
	if n > uint64(len(c.b))/minPairLen { // sanity cap before allocating
		err = errFrameTruncated
		return
	}
	pairs = make([]cache.KV, n)
	for i := range pairs {
		if pairs[i], c.b, err = cache.DecodePair(c.b); err != nil {
			return
		}
	}
	return
}

// --- offerMeta / offerAck ---

// offerFrames encodes an offer — per class, a non-increasing stamp list —
// as offerMeta payloads of at most maxPayload bytes, classes ascending,
// and hands each to emit; the last one is flagged final. A list longer
// than the room left in a frame is split there and continues as the next
// frame's first class. The payload passed to emit is reused afterwards.
func offerFrames(from string, round uint64, lists map[int]fusecache.List, maxPayload int, emit func(payload []byte) error) error {
	ids := make([]int, 0, len(lists))
	for id, l := range lists {
		if len(l) > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	buf := getBuf()
	defer func() { putBuf(buf) }()
	buf = appendStr(buf, from)
	buf = binary.AppendUvarint(buf, round)
	flagAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0) // final flag, u32 class count
	head := len(buf)
	segs := 0
	flush := func(final byte) error {
		buf[flagAt] = final
		binary.BigEndian.PutUint32(buf[flagAt+1:], uint32(segs))
		err := emit(buf)
		buf, segs = buf[:head], 0
		return err
	}
	for _, id := range ids {
		if id < 0 || id > maxOfferClass {
			return fmt.Errorf("agentrpc: offer class %d out of range", id)
		}
		for l := lists[id]; len(l) > 0; {
			if len(buf)+offerSegMax > maxPayload {
				if segs == 0 {
					return fmt.Errorf("agentrpc: offer frame cap %d holds no stamp", maxPayload)
				}
				if err := flush(0); err != nil {
					return err
				}
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(id))
			countAt := len(buf)
			buf = append(buf, 0, 0, 0, 0)
			buf = binary.AppendVarint(buf, l[0])
			n := 1
			for ; n < len(l) && len(buf)+binary.MaxVarintLen64 <= maxPayload; n++ {
				if l[n] > l[n-1] {
					return fmt.Errorf("agentrpc: offer class %d: %w", id, fusecache.ErrUnsorted)
				}
				buf = binary.AppendUvarint(buf, uint64(l[n-1]-l[n]))
			}
			binary.BigEndian.PutUint32(buf[countAt:], uint32(n))
			segs++
			l = l[n:]
		}
	}
	return flush(1)
}

// offerDecoder assembles one offer from its offerMeta frames.
type offerDecoder struct {
	from  string
	round uint64
	lists map[int]fusecache.List
	last  int // class of the previous frame's last segment; -1 before any
}

// frame decodes one offerMeta payload into the offer and reports whether
// it was the final frame. Everything read off the wire is checked before
// it is trusted: sender and round must not change mid-offer; the class count
// must fit the payload and be met exactly, with no bytes left over; class
// IDs must be in range and ascend (a frame's first class may repeat the
// previous frame's last: a split list); a class's stamp count must fit
// the unread payload before its list is grown; no delta may wrap a stamp.
func (d *offerDecoder) frame(payload []byte) (final bool, err error) {
	c := cursor{payload}
	from, err := c.str()
	if err != nil {
		return false, err
	}
	round, err := c.uvarint()
	if err != nil {
		return false, err
	}
	head, err := c.take(5)
	if err != nil {
		return false, err
	}
	if head[0] > 1 {
		return false, fmt.Errorf("agentrpc: bad offer flag %d", head[0])
	}
	segs := binary.BigEndian.Uint32(head[1:])
	if uint64(segs) > uint64(len(c.b))/offerSegMin {
		return false, errFrameTruncated
	}
	if d.lists == nil {
		d.from, d.round, d.lists, d.last = from, round, make(map[int]fusecache.List), -1
	} else if from != d.from || round != d.round {
		return false, fmt.Errorf("agentrpc: offer from %q interleaved with another offer", from)
	}
	for seg := uint32(0); seg < segs; seg++ {
		id, err := c.uvarint()
		if err != nil {
			return false, err
		}
		if id > maxOfferClass || int(id) < d.last || (int(id) == d.last && seg > 0) {
			return false, fmt.Errorf("agentrpc: offer class %d out of range or order", id)
		}
		cb, err := c.take(4)
		if err != nil {
			return false, err
		}
		// Every stamp takes at least one byte: a count the unread payload
		// cannot hold is refused before anything is allocated for it.
		cnt := binary.BigEndian.Uint32(cb)
		if cnt == 0 || uint64(cnt) > uint64(len(c.b)) {
			return false, errFrameTruncated
		}
		l := d.lists[int(id)] // non-nil only when continuing a split list
		l = slices.Grow(l, int(cnt))
		stamp, n := binary.Varint(c.b)
		if n <= 0 {
			return false, errFrameTruncated
		}
		c.b = c.b[n:]
		if len(l) > 0 && stamp > l[len(l)-1] {
			return false, fusecache.ErrUnsorted
		}
		l = append(l, stamp)
		for i := uint32(1); i < cnt; i++ {
			delta, err := c.uvarint()
			if err != nil {
				return false, err
			}
			// stamp − math.MinInt64 (mod 2⁶⁴): how far stamp can fall.
			if delta > uint64(stamp)+1<<63 {
				return false, fmt.Errorf("agentrpc: offer delta %d underflows stamp %d", delta, stamp)
			}
			stamp -= int64(delta)
			l = append(l, stamp)
		}
		d.lists[int(id)] = l
		d.last = int(id)
	}
	if len(c.b) > 0 {
		return false, fmt.Errorf("agentrpc: %d stray bytes after the offer's classes", len(c.b))
	}
	return head[0] == 1, nil
}
