package memproto

import (
	"bufio"
	"io"
	"strconv"
)

// ReplyWriter renders server responses into an owned buffered writer with
// zero heap allocations per reply: numbers are formatted with
// strconv.Append* into a scratch buffer that lives with the writer, so the
// serving hot path never touches fmt. One ReplyWriter serves one
// connection; servers pool them via Reset.
//
// Errors are sticky through the underlying bufio.Writer: intermediate
// write errors surface on the final write or on Flush, so methods only
// return the last write's error.
type ReplyWriter struct {
	w   *bufio.Writer
	num []byte // strconv.Append* scratch
}

// NewReplyWriter wraps w in a ReplyWriter with a 16 KiB buffer.
func NewReplyWriter(w io.Writer) *ReplyWriter {
	return &ReplyWriter{
		w:   bufio.NewWriterSize(w, 16<<10),
		num: make([]byte, 0, 64),
	}
}

// Reset repoints the writer at a new stream, keeping its buffers.
func (rw *ReplyWriter) Reset(w io.Writer) { rw.w.Reset(w) }

// Flush writes buffered responses to the connection. The server calls it
// only when the request parser has no more pipelined input buffered.
func (rw *ReplyWriter) Flush() error { return rw.w.Flush() }

// writeUint formats a decimal into the scratch and emits it.
func (rw *ReplyWriter) writeUint(v uint64) {
	rw.num = strconv.AppendUint(rw.num[:0], v, 10)
	_, _ = rw.w.Write(rw.num)
}

// Value writes one VALUE block of a get response.
func (rw *ReplyWriter) Value(key []byte, flags uint32, value []byte) error {
	_, _ = rw.w.WriteString("VALUE ")
	_, _ = rw.w.Write(key)
	_ = rw.w.WriteByte(' ')
	rw.writeUint(uint64(flags))
	_ = rw.w.WriteByte(' ')
	rw.writeUint(uint64(len(value)))
	_, _ = rw.w.WriteString("\r\n")
	_, _ = rw.w.Write(value)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// ValueCAS writes one VALUE block of a gets response, including the CAS
// token.
func (rw *ReplyWriter) ValueCAS(key []byte, flags uint32, value []byte, casToken uint64) error {
	_, _ = rw.w.WriteString("VALUE ")
	_, _ = rw.w.Write(key)
	_ = rw.w.WriteByte(' ')
	rw.writeUint(uint64(flags))
	_ = rw.w.WriteByte(' ')
	rw.writeUint(uint64(len(value)))
	_ = rw.w.WriteByte(' ')
	rw.writeUint(casToken)
	_, _ = rw.w.WriteString("\r\n")
	_, _ = rw.w.Write(value)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// Lease writes the miss arm of an lget response: a fill token the client
// must present on its lset. Token 0 tells the client another fill is
// already outstanding. The caller terminates the response with End.
func (rw *ReplyWriter) Lease(token uint64) error {
	_, _ = rw.w.WriteString("LEASE ")
	rw.writeUint(token)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// Number reports an incr/decr result.
func (rw *ReplyWriter) Number(v uint64) error {
	rw.writeUint(v)
	_, err := rw.w.WriteString("\r\n")
	return err
}

func (rw *ReplyWriter) writeLine(s string) error {
	_, err := rw.w.WriteString(s)
	return err
}

// End terminates a get or stats response.
func (rw *ReplyWriter) End() error { return rw.writeLine("END\r\n") }

// Stored acknowledges a set.
func (rw *ReplyWriter) Stored() error { return rw.writeLine("STORED\r\n") }

// NotStored reports a failed conditional store.
func (rw *ReplyWriter) NotStored() error { return rw.writeLine("NOT_STORED\r\n") }

// Exists reports a cas conflict.
func (rw *ReplyWriter) Exists() error { return rw.writeLine("EXISTS\r\n") }

// Deleted acknowledges a delete.
func (rw *ReplyWriter) Deleted() error { return rw.writeLine("DELETED\r\n") }

// NotFound reports a missing key for delete/touch/cas.
func (rw *ReplyWriter) NotFound() error { return rw.writeLine("NOT_FOUND\r\n") }

// Touched acknowledges a touch.
func (rw *ReplyWriter) Touched() error { return rw.writeLine("TOUCHED\r\n") }

// OK acknowledges flush_all.
func (rw *ReplyWriter) OK() error { return rw.writeLine("OK\r\n") }

// Error reports an unknown command.
func (rw *ReplyWriter) Error() error { return rw.writeLine("ERROR\r\n") }

// Version reports the server version.
func (rw *ReplyWriter) Version(version string) error {
	_, _ = rw.w.WriteString("VERSION ")
	_, _ = rw.w.WriteString(version)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// StatUint writes one STAT line with a numeric value, formatted without
// allocating.
func (rw *ReplyWriter) StatUint(name string, v uint64) error {
	_, _ = rw.w.WriteString("STAT ")
	_, _ = rw.w.WriteString(name)
	_ = rw.w.WriteByte(' ')
	rw.writeUint(v)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// HotKeysHeader starts a hotkeys response with the table version. HK
// entries follow, terminated by End.
func (rw *ReplyWriter) HotKeysHeader(version uint64) error {
	_, _ = rw.w.WriteString("HOTKEYS ")
	rw.writeUint(version)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// HotKeyEntry writes one hot-key table row: the key and its serving set,
// home node first.
func (rw *ReplyWriter) HotKeyEntry(key string, nodes []string) error {
	_, _ = rw.w.WriteString("HK ")
	_, _ = rw.w.WriteString(key)
	for _, n := range nodes {
		_ = rw.w.WriteByte(' ')
		_, _ = rw.w.WriteString(n)
	}
	_, err := rw.w.WriteString("\r\n")
	return err
}

// ClientError reports a client-caused failure.
func (rw *ReplyWriter) ClientError(msg string) error {
	_, _ = rw.w.WriteString("CLIENT_ERROR ")
	_, _ = rw.w.WriteString(msg)
	_, err := rw.w.WriteString("\r\n")
	return err
}

// ServerError reports a server-side failure.
func (rw *ReplyWriter) ServerError(msg string) error {
	_, _ = rw.w.WriteString("SERVER_ERROR ")
	_, _ = rw.w.WriteString(msg)
	_, err := rw.w.WriteString("\r\n")
	return err
}
