package memproto

import (
	"io"
	"strconv"
	"sync"
)

// MaxReplyBuffer is the per-connection cap on buffered replies: a
// pipelined batch's replies up to this size leave in one write(2), and a
// larger backlog is written out as it reaches the cap instead of growing.
// 128 KiB holds a whole 16 × 8-key multi-get batch of ETC-sized values
// (about 46 KB) with room to spare.
const MaxReplyBuffer = 128 << 10

// inPlaceRoom is the room AppendValue is guaranteed after MakeRoom: a
// VALUE block up to it always lands in the buffer without I/O. Larger
// blocks fit while the room lasts and otherwise go out from the caller's
// slice.
const inPlaceRoom = 16 << 10

// replyBufs pools the reply buffers. A writer takes one for the replies of
// a batch and returns it on Flush, so an idle connection holds no reply
// memory at all.
var replyBufs = sync.Pool{New: func() any { return new([MaxReplyBuffer]byte) }}

// ReplyWriter renders server responses into a pooled buffer of at most
// MaxReplyBuffer bytes with zero heap allocations per reply: numbers are
// formatted with strconv.Append* straight into the buffer, so the serving
// hot path never touches fmt. One ReplyWriter serves one connection;
// servers pool them via Reset.
//
// Replies stay buffered until Flush, or until the next reply does not fit
// the room left below the cap, which writes the buffered ones out first.
// A VALUE block that does not fit goes to the stream straight from the
// caller's slice.
//
// Errors are sticky: the first write error is returned by every later
// reply and Flush, and the replies after it are discarded.
type ReplyWriter struct {
	w   io.Writer
	arr *[MaxReplyBuffer]byte // the pooled buffer, nil while idle
	buf []byte                // pending replies, a prefix of arr
	err error
}

// NewReplyWriter wraps w. The writer holds no buffer until its first
// reply and gives it back on every Flush.
func NewReplyWriter(w io.Writer) *ReplyWriter { return &ReplyWriter{w: w} }

// Reset repoints the writer at a new stream, dropping unflushed replies
// and any sticky error.
func (rw *ReplyWriter) Reset(w io.Writer) {
	rw.release()
	rw.w, rw.err = w, nil
}

// Flush writes the buffered responses to the stream in one write and
// returns the buffer to the pool. The server calls it only when the
// request parser has no more pipelined input buffered.
func (rw *ReplyWriter) Flush() error {
	rw.write()
	rw.release()
	return rw.err
}

// write sends the buffered responses, keeping the buffer.
func (rw *ReplyWriter) write() {
	if len(rw.buf) > 0 && rw.err == nil {
		_, rw.err = rw.w.Write(rw.buf)
	}
	rw.buf = rw.buf[:0]
}

func (rw *ReplyWriter) release() {
	if rw.arr != nil {
		replyBufs.Put(rw.arr)
	}
	rw.arr, rw.buf = nil, nil
}

// reserve makes room for n more bytes, writing the buffered replies out
// first when they would not fit beside them. An n beyond the cap (an
// oversized error or hot-key line) lets append outgrow the pooled buffer.
func (rw *ReplyWriter) reserve(n int) {
	if rw.arr == nil {
		rw.arr = replyBufs.Get().(*[MaxReplyBuffer]byte)
		rw.buf = rw.arr[:0]
	}
	if cap(rw.buf)-len(rw.buf) < n {
		rw.write()
	}
}

// MakeRoom prepares for an AppendValue made where the writer must not
// block: it writes the buffered replies out when less than 16 KiB of room
// is left below the cap.
func (rw *ReplyWriter) MakeRoom() error {
	rw.reserve(inPlaceRoom)
	return rw.err
}

// valueBlockLen bounds the bytes of a VALUE block: header with the widest
// numbers, value, CRLF.
func valueBlockLen(key, value []byte) int {
	return len("VALUE   \r\n\r\n") + len(key) + len(value) + 10 + 20 + 20
}

// appendValue renders one VALUE block, with the CAS token when withCAS.
func appendValue(b, key []byte, flags uint32, value []byte, casToken uint64, withCAS bool) []byte {
	b = appendValueHeader(b, key, flags, len(value), casToken, withCAS)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

func appendValueHeader(b, key []byte, flags uint32, size int, casToken uint64, withCAS bool) []byte {
	b = append(b, "VALUE "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(size), 10)
	if withCAS {
		b = append(b, ' ')
		b = strconv.AppendUint(b, casToken, 10)
	}
	return append(b, "\r\n"...)
}

// AppendValue renders one VALUE block, with the CAS token when withCAS,
// into the buffer if it fits there, and reports whether it did. It never
// writes, so a caller may render a value it reads under a lock without
// copying it anywhere else first; after MakeRoom every block up to 16 KiB
// fits. On false nothing was rendered: send the block with Value or
// ValueCAS.
func (rw *ReplyWriter) AppendValue(key []byte, flags uint32, value []byte, casToken uint64, withCAS bool) bool {
	if cap(rw.buf)-len(rw.buf) < valueBlockLen(key, value) {
		return false
	}
	rw.buf = appendValue(rw.buf, key, flags, value, casToken, withCAS)
	return true
}

// value renders a VALUE block from the caller's slice: into the buffer
// when the block fits the room left, else as a header joining the
// buffered replies and the value written from the slice itself, so its
// bytes are never copied twice.
func (rw *ReplyWriter) value(key []byte, flags uint32, value []byte, casToken uint64, withCAS bool) error {
	rw.reserve(valueBlockLen(key, nil))
	if rw.AppendValue(key, flags, value, casToken, withCAS) {
		return rw.err
	}
	rw.buf = appendValueHeader(rw.buf, key, flags, len(value), casToken, withCAS)
	rw.write()
	if rw.err == nil {
		_, rw.err = rw.w.Write(value)
	}
	rw.buf = append(rw.buf, "\r\n"...)
	return rw.err
}

// Value writes one VALUE block of a get response.
func (rw *ReplyWriter) Value(key []byte, flags uint32, value []byte) error {
	return rw.value(key, flags, value, 0, false)
}

// ValueCAS writes one VALUE block of a gets response, including the CAS
// token.
func (rw *ReplyWriter) ValueCAS(key []byte, flags uint32, value []byte, casToken uint64) error {
	return rw.value(key, flags, value, casToken, true)
}

// maxUintLen is the width of the longest decimal uint64.
const maxUintLen = 20

// line writes prefix, then v in decimal when withNum, then CRLF.
func (rw *ReplyWriter) line(prefix string, v uint64, withNum bool) error {
	rw.reserve(len(prefix) + maxUintLen + 2)
	rw.buf = append(rw.buf, prefix...)
	if withNum {
		rw.buf = strconv.AppendUint(rw.buf, v, 10)
	}
	rw.buf = append(rw.buf, "\r\n"...)
	return rw.err
}

// Lease writes the miss arm of an lget response: a fill token the client
// must present on its lset. Token 0 tells the client another fill is
// already outstanding. The caller terminates the response with End.
func (rw *ReplyWriter) Lease(token uint64) error { return rw.line("LEASE ", token, true) }

// Number reports an incr/decr result.
func (rw *ReplyWriter) Number(v uint64) error { return rw.line("", v, true) }

func (rw *ReplyWriter) writeLine(s string) error { return rw.line(s, 0, false) }

// End terminates a get or stats response.
func (rw *ReplyWriter) End() error { return rw.writeLine("END") }

// Stored acknowledges a set.
func (rw *ReplyWriter) Stored() error { return rw.writeLine("STORED") }

// NotStored reports a failed conditional store.
func (rw *ReplyWriter) NotStored() error { return rw.writeLine("NOT_STORED") }

// Exists reports a cas conflict.
func (rw *ReplyWriter) Exists() error { return rw.writeLine("EXISTS") }

// Deleted acknowledges a delete.
func (rw *ReplyWriter) Deleted() error { return rw.writeLine("DELETED") }

// NotFound reports a missing key for delete/touch/cas.
func (rw *ReplyWriter) NotFound() error { return rw.writeLine("NOT_FOUND") }

// Touched acknowledges a touch.
func (rw *ReplyWriter) Touched() error { return rw.writeLine("TOUCHED") }

// OK acknowledges flush_all.
func (rw *ReplyWriter) OK() error { return rw.writeLine("OK") }

// Error reports an unknown command.
func (rw *ReplyWriter) Error() error { return rw.writeLine("ERROR") }

// text writes prefix and s as one line.
func (rw *ReplyWriter) text(prefix, s string) error {
	rw.reserve(len(prefix) + len(s) + 2)
	rw.buf = append(rw.buf, prefix...)
	rw.buf = append(rw.buf, s...)
	rw.buf = append(rw.buf, "\r\n"...)
	return rw.err
}

// Version reports the server version.
func (rw *ReplyWriter) Version(version string) error { return rw.text("VERSION ", version) }

// StatUint writes one STAT line with a numeric value, formatted without
// allocating.
func (rw *ReplyWriter) StatUint(name string, v uint64) error {
	rw.reserve(len("STAT  ") + len(name) + maxUintLen + 2)
	rw.buf = append(rw.buf, "STAT "...)
	rw.buf = append(rw.buf, name...)
	rw.buf = append(rw.buf, ' ')
	rw.buf = strconv.AppendUint(rw.buf, v, 10)
	rw.buf = append(rw.buf, "\r\n"...)
	return rw.err
}

// HotKeysHeader starts a hotkeys response with the table version. HK
// entries follow, terminated by End.
func (rw *ReplyWriter) HotKeysHeader(version uint64) error {
	return rw.line("HOTKEYS ", version, true)
}

// HotKeyEntry writes one hot-key table row: the key and its serving set,
// home node first.
func (rw *ReplyWriter) HotKeyEntry(key string, nodes []string) error {
	n := len("HK \r\n") + len(key)
	for _, node := range nodes {
		n += 1 + len(node)
	}
	rw.reserve(n)
	rw.buf = append(rw.buf, "HK "...)
	rw.buf = append(rw.buf, key...)
	for _, node := range nodes {
		rw.buf = append(rw.buf, ' ')
		rw.buf = append(rw.buf, node...)
	}
	rw.buf = append(rw.buf, "\r\n"...)
	return rw.err
}

// ClientError reports a client-caused failure.
func (rw *ReplyWriter) ClientError(msg string) error { return rw.text("CLIENT_ERROR ", msg) }

// ServerError reports a server-side failure.
func (rw *ReplyWriter) ServerError(msg string) error { return rw.text("SERVER_ERROR ", msg) }
