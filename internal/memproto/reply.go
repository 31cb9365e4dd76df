package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ErrServer wraps SERVER_ERROR / CLIENT_ERROR / ERROR responses on the
// client side.
var ErrServer = errors.New("memproto: server reported error")

// replyBufSize is the ReplyReader's read buffer. 64 KiB takes a whole
// 16 × 8-key multi-get batch of ETC-sized values (about 46 KB) in one
// read, and VALUE bodies up to it decode in place. No reply line (VALUE,
// STAT, HK …) legitimately comes near it, so a longer one is a protocol
// error rather than something to buffer without bound.
const replyBufSize = 64 << 10

// ReplyReader parses server responses on the client side. A VALUE body
// that fits the read buffer together with its CRLF is returned as a view
// of that buffer; a larger one is copied into a scratch. Either way the
// value is valid until the next read.
type ReplyReader struct {
	r   *bufio.Reader
	key []byte // key scratch: the line buffer is recycled by the value read
	val []byte // scratch for values larger than the read buffer
}

// NewReplyReader wraps a reader with a 64 KiB read buffer.
func NewReplyReader(r io.Reader) *ReplyReader {
	return &ReplyReader{r: bufio.NewReaderSize(r, replyBufSize)}
}

// readLine reads one line without its terminator (the newline and any
// carriage returns before it). The slice aliases the read buffer and is
// valid until the next read.
func (rr *ReplyReader) readLine() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("%w: reply line exceeds %d bytes", ErrProtocol, replyBufSize)
		}
		return nil, err
	}
	n := len(line) - 1
	for n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

// hasPrefix is bytes.HasPrefix against a string, without converting it.
func hasPrefix(line []byte, prefix string) bool {
	return len(line) >= len(prefix) && string(line[:len(prefix)]) == prefix
}

// errorFromLine converts an error response line to an error, or nil.
func errorFromLine(line []byte) error {
	switch {
	case string(line) == "ERROR":
		return fmt.Errorf("%w: ERROR", ErrServer)
	case hasPrefix(line, "CLIENT_ERROR "), hasPrefix(line, "SERVER_ERROR "):
		return fmt.Errorf("%w: %s", ErrServer, line)
	}
	return nil
}

// ReadValue reads the next VALUE block of a get/gets response; more is
// false once END was consumed instead. key aliases a scratch and value the
// read buffer (or, past its size, a scratch); both are reused by the next
// read: copy them to retain them. This is the allocation-free decode the
// cluster client's gets run on.
func (rr *ReplyReader) ReadValue() (key, value []byte, flags uint32, casToken uint64, more bool, err error) {
	line, err := rr.readLine()
	if err != nil {
		return nil, nil, 0, 0, false, err
	}
	if string(line) == "END" {
		return nil, nil, 0, 0, false, nil
	}
	if err := errorFromLine(line); err != nil {
		return nil, nil, 0, 0, false, err
	}
	key, flags, size, casToken, err := parseValueLine(line)
	if err != nil {
		return nil, nil, 0, 0, false, err
	}
	rr.key = append(rr.key[:0], key...)
	value, err = rr.readBody(size)
	if err != nil {
		return nil, nil, 0, 0, false, err
	}
	return rr.key, value, flags, casToken, true, nil
}

// readBody reads a block's value and its trailing CRLF: in place when they
// fit the read buffer, else into the scratch.
func (rr *ReplyReader) readBody(size int) ([]byte, error) {
	need := size + 2
	var body []byte
	var err error
	if need <= replyBufSize {
		if body, err = rr.r.Peek(need); err == nil {
			_, _ = rr.r.Discard(need) // the view stays valid until the next read
		}
	} else {
		if cap(rr.val) < need {
			rr.val = make([]byte, need)
		}
		body = rr.val[:need]
		_, err = io.ReadFull(rr.r, body)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: short value: %v", ErrProtocol, err)
	}
	if body[size] != '\r' || body[size+1] != '\n' {
		return nil, fmt.Errorf("%w: bad value terminator", ErrProtocol)
	}
	return body[:size], nil
}

// expectEnd consumes the END that closes a single-block response.
func (rr *ReplyReader) expectEnd(after string) error {
	line, err := rr.readLine()
	if err != nil {
		return err
	}
	if string(line) != "END" {
		return fmt.Errorf("%w: expected END after %s, got %q", ErrProtocol, after, line)
	}
	return nil
}

// ReadValuesFunc consumes a get/gets response — zero or more VALUE blocks
// followed by END — invoking fn for each block in arrival order. The value
// slice aliases the read buffer or a scratch, both reused across blocks:
// copy it to retain it past fn's return.
func (rr *ReplyReader) ReadValuesFunc(fn func(key string, flags uint32, value []byte, casToken uint64) error) error {
	for {
		key, value, flags, casToken, more, err := rr.ReadValue()
		if err != nil || !more {
			return err
		}
		if err := fn(string(key), flags, value, casToken); err != nil {
			return err
		}
	}
}

// ReadValues consumes a get response: zero or more VALUE blocks followed
// by END. Returns key → value.
func (rr *ReplyReader) ReadValues() (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := rr.ReadValuesFunc(func(key string, _ uint32, value []byte, _ uint64) error {
		out[key] = append(make([]byte, 0, len(value)), value...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ValueCAS is one entry of a gets response.
type ValueCAS struct {
	// Value is the stored bytes.
	Value []byte
	// CAS is the item's compare-and-swap token.
	CAS uint64
}

// ReadValuesCAS consumes a gets response: VALUE blocks carrying CAS
// tokens, terminated by END.
func (rr *ReplyReader) ReadValuesCAS() (map[string]ValueCAS, error) {
	out := make(map[string]ValueCAS)
	err := rr.ReadValuesFunc(func(key string, _ uint32, value []byte, casToken uint64) error {
		out[key] = ValueCAS{
			Value: append(make([]byte, 0, len(value)), value...),
			CAS:   casToken,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseValueLine parses "VALUE <key> <flags> <bytes> [<cas>]". key aliases
// line.
func parseValueLine(line []byte) (key []byte, flags uint32, size int, casToken uint64, err error) {
	var buf [6][]byte
	fields := splitFields(line, buf[:0])
	if len(fields) < 4 || len(fields) > 5 || string(fields[0]) != "VALUE" {
		return nil, 0, 0, 0, fmt.Errorf("%w: bad VALUE line %q", ErrProtocol, line)
	}
	flags, ok := parseUint32(fields[2])
	if !ok {
		return nil, 0, 0, 0, fmt.Errorf("%w: bad flags in %q", ErrProtocol, line)
	}
	n, ok := parseUint64(fields[3])
	if !ok || n > MaxValueLen {
		return nil, 0, 0, 0, fmt.Errorf("%w: bad size in %q", ErrProtocol, line)
	}
	if len(fields) == 5 {
		if casToken, ok = parseUint64(fields[4]); !ok {
			return nil, 0, 0, 0, fmt.Errorf("%w: bad cas in %q", ErrProtocol, line)
		}
	}
	return fields[1], flags, int(n), casToken, nil
}

// ReadLeaseGet consumes an lget response: either one VALUE block followed
// by END (a hit), or a "LEASE <token>" line followed by END (a miss with
// a fill token; token 0 means another client already holds the lease —
// back off and retry). The returned value is a copy.
func (rr *ReplyReader) ReadLeaseGet() (value []byte, flags uint32, hit bool, token uint64, err error) {
	line, err := rr.readLine()
	if err != nil {
		return nil, 0, false, 0, err
	}
	if hasPrefix(line, "LEASE ") {
		token, ok := parseUint64(line[len("LEASE "):])
		if !ok {
			return nil, 0, false, 0, fmt.Errorf("%w: bad LEASE token %q", ErrProtocol, line)
		}
		if err := rr.expectEnd("LEASE"); err != nil {
			return nil, 0, false, 0, err
		}
		return nil, 0, false, token, nil
	}
	if err := errorFromLine(line); err != nil {
		return nil, 0, false, 0, err
	}
	_, flags, size, _, err := parseValueLine(line)
	if err != nil {
		return nil, 0, false, 0, err
	}
	body, err := rr.readBody(size)
	if err != nil {
		return nil, 0, false, 0, err
	}
	value = append(make([]byte, 0, size), body...)
	if err := rr.expectEnd("VALUE"); err != nil {
		return nil, 0, false, 0, err
	}
	return value, flags, true, 0, nil
}

// ReadSimple consumes a one-line response (STORED, DELETED, NOT_FOUND,
// OK, TOUCHED, VERSION …) and returns it. The fixed replies come back as
// constants, so matching one costs no allocation.
func (rr *ReplyReader) ReadSimple() (string, error) {
	line, err := rr.readLine()
	if err != nil {
		return "", err
	}
	if err := errorFromLine(line); err != nil {
		return "", err
	}
	switch string(line) {
	case "STORED":
		return "STORED", nil
	case "NOT_STORED":
		return "NOT_STORED", nil
	case "EXISTS":
		return "EXISTS", nil
	case "NOT_FOUND":
		return "NOT_FOUND", nil
	case "DELETED":
		return "DELETED", nil
	case "TOUCHED":
		return "TOUCHED", nil
	case "OK":
		return "OK", nil
	}
	return string(line), nil
}

// ReadStats consumes a stats response into a name → value map.
func (rr *ReplyReader) ReadStats() (map[string]string, error) {
	out := make(map[string]string)
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		if string(line) == "END" {
			return out, nil
		}
		if err := errorFromLine(line); err != nil {
			return nil, err
		}
		if !hasPrefix(line, "STAT ") {
			return nil, fmt.Errorf("%w: bad STAT line %q", ErrProtocol, line)
		}
		name, value, ok := bytes.Cut(line[len("STAT "):], []byte(" "))
		if !ok {
			return nil, fmt.Errorf("%w: bad STAT line %q", ErrProtocol, line)
		}
		out[string(name)] = string(value)
	}
}

// HotKeyTableEntry is one row of a hotkeys response: a promoted key and
// its serving set, home node first.
type HotKeyTableEntry struct {
	Key   string
	Nodes []string
}

// ReadHotKeys consumes a hotkeys response: a "HOTKEYS <version>" header,
// zero or more "HK <key> <node>..." rows, and END.
func (rr *ReplyReader) ReadHotKeys() (uint64, []HotKeyTableEntry, error) {
	line, err := rr.readLine()
	if err != nil {
		return 0, nil, err
	}
	if err := errorFromLine(line); err != nil {
		return 0, nil, err
	}
	if !hasPrefix(line, "HOTKEYS ") {
		return 0, nil, fmt.Errorf("%w: bad HOTKEYS header %q", ErrProtocol, line)
	}
	version, ok := parseUint64(line[len("HOTKEYS "):])
	if !ok {
		return 0, nil, fmt.Errorf("%w: bad HOTKEYS version %q", ErrProtocol, line)
	}
	var entries []HotKeyTableEntry
	var fields [][]byte
	for {
		line, err := rr.readLine()
		if err != nil {
			return 0, nil, err
		}
		if string(line) == "END" {
			return version, entries, nil
		}
		fields = splitFields(line, fields[:0])
		if len(fields) < 3 || string(fields[0]) != "HK" {
			return 0, nil, fmt.Errorf("%w: bad HK line %q", ErrProtocol, line)
		}
		nodes := make([]string, len(fields)-2)
		for i, f := range fields[2:] {
			nodes[i] = string(f)
		}
		entries = append(entries, HotKeyTableEntry{Key: string(fields[1]), Nodes: nodes})
	}
}
