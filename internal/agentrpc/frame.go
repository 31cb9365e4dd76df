package agentrpc

// Binary framing for the phase-3 data plane. JSON stays on the wire for the
// low-volume control ops (score, metadata, takes), but bulk KV movement
// would pay ~33% base64 inflation plus per-pair marshalling there, so
// import streams are length-prefixed binary frames:
//
//	frame = magic(0xEB) version(2) type(1) payloadLen(u32 BE) payload
//
// 0xEB can never start a JSON value, so the server peeks one byte and
// dispatches either protocol on the same connection. Pairs inside a batch
// frame are cache.AppendPair records — the layout snapshot files share;
// version 2 is the first whose pairs carry the expiry deadline, and a
// version-1 frame is refused. Frame payload buffers are pooled (sync.Pool)
// on both sides, and decoded values alias the frame buffer (BatchImport
// copies into slab chunks), so a steady-state stream allocates only keys.
//
// Frame types:
//
//	importOpen  c→s  from, epoch, fingerprint, window
//	openAck     s→c  status, highWater | error
//	importBatch c→s  from, epoch, seq, pairs (coldest-first)
//	batchAck    s→c  status, seq, highWater, imported | error
//
// Acks carry the receiver's applied-sequence high-water mark, which is
// what makes a retried send resumable: see agent.ImportOpen/ImportFrame.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cache"
)

const (
	frameMagic     = 0xEB
	frameVersion   = 2
	frameHeaderLen = 7 // magic + version + type + u32 payload length

	// maxFramePayload is a sanity cap protecting both sides from a
	// corrupt or hostile length prefix. Batches are bounded far below it
	// (WithBatchBytes, default 256 KiB).
	maxFramePayload = 64 << 20

	// minPairLen is the smallest pair record: two empty length prefixes,
	// flags, and the two timestamps.
	minPairLen = 2 + 4 + 8 + 8
)

// The frame types.
const (
	ftImportOpen byte = iota + 1
	ftOpenAck
	ftImportBatch
	ftBatchAck
)

var errFrameTruncated = errors.New("agentrpc: truncated frame payload")

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

func appendImportOpen(b []byte, from string, epoch, fp uint64, window int) []byte {
	b = appendStr(b, from)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, fp)
	b = binary.AppendUvarint(b, uint64(window))
	return b
}

func decodeImportOpen(payload []byte) (from string, epoch, fp uint64, window int, err error) {
	c := cursor{payload}
	if from, err = c.str(); err != nil {
		return
	}
	if epoch, err = c.uvarint(); err != nil {
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

func appendOpenAck(b []byte, highWater uint64, remoteErr string) []byte {
	if remoteErr != "" {
		b = append(b, 0)
		return append(b, remoteErr...)
	}
	b = append(b, 1)
	return binary.AppendUvarint(b, highWater)
}

func decodeOpenAck(payload []byte) (highWater uint64, remoteErr string, err error) {
	c := cursor{payload}
	status, err := c.take(1)
	if err != nil {
		return 0, "", err
	}
	if status[0] == 0 {
		return 0, string(c.b), nil
	}
	hw, err := c.uvarint()
	return hw, "", err
}

func appendBatchAck(b []byte, seq, highWater uint64, imported int, remoteErr string) []byte {
	if remoteErr != "" {
		b = append(b, 0)
		b = binary.AppendUvarint(b, seq)
		return append(b, remoteErr...)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, highWater)
	return binary.AppendUvarint(b, uint64(imported))
}

func decodeBatchAck(payload []byte) (seq, highWater uint64, imported int, remoteErr string, err error) {
	c := cursor{payload}
	status, err := c.take(1)
	if err != nil {
		return 0, 0, 0, "", err
	}
	if seq, err = c.uvarint(); err != nil {
		return 0, 0, 0, "", err
	}
	if status[0] == 0 {
		return seq, 0, 0, string(c.b), nil
	}
	if highWater, err = c.uvarint(); err != nil {
		return 0, 0, 0, "", err
	}
	n, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, "", err
	}
	return seq, highWater, int(n), "", nil
}

// --- importBatch ---

func appendImportBatch(b []byte, from string, epoch, seq uint64, pairs []cache.KV) []byte {
	b = appendStr(b, from)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for i := range pairs {
		b = cache.AppendPair(b, &pairs[i])
	}
	return b
}

// decodeImportBatch parses a batch frame. The returned pairs' Value
// slices alias payload, which therefore must outlive them (the server
// recycles it only after BatchImport copied the values out).
func decodeImportBatch(payload []byte) (from string, epoch, seq uint64, pairs []cache.KV, err error) {
	c := cursor{payload}
	if from, err = c.str(); err != nil {
		return
	}
	if epoch, err = c.uvarint(); err != nil {
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
