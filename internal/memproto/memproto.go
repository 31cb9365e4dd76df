// Package memproto implements the Memcached ASCII protocol the ElMem
// testbed speaks (Section II-A): memcached's retrieval and storage
// commands (get and gets, multi-key; set, add, replace, append, prepend,
// cas, incr, decr, delete, touch), stats, flush_all, version and quit,
// plus the node's own extensions: lget/lset (lease-gated fills), hotkeys
// (the hot-key table poll) and hkput/hkdel (home→replica pushes). It
// provides the request parser and reply writer the node server uses, and
// the request encoders and reply reader the clients use.
//
// The parser is built for the serving hot path: it performs zero heap
// allocations per request in steady state. One Request struct is reused
// across Next calls, keys are byte slices into parser-owned buffers,
// values land in a scratch buffer that grows once per connection, and
// field splitting and number parsing are hand-rolled so no intermediate
// strings are materialized. See DESIGN.md, "Data-path hot path".
package memproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Command identifies a parsed request type.
type Command int

// The supported commands.
const (
	CmdGet  Command = iota + 1
	CmdGets         // get returning CAS tokens
	CmdSet
	CmdAdd
	CmdReplace
	CmdAppend
	CmdPrepend
	CmdCas
	CmdIncr
	CmdDecr
	CmdDelete
	CmdTouch
	CmdStats
	CmdFlushAll
	CmdVersion
	CmdQuit
	CmdHotKeys  // hot-key table poll
	CmdHKPut    // home→replica value push (storage-shaped)
	CmdHKDel    // home→replica invalidation
	CmdLeaseGet // lease get: a miss hands out a fill token
	CmdLeaseSet // lease set: a fill accepted only with a valid token
)

// Protocol limits mirroring memcached's.
const (
	// MaxKeyLen is memcached's 250-byte key limit.
	MaxKeyLen = 250
	// MaxValueLen bounds a single value (1 MiB, the page size).
	MaxValueLen = 1 << 20
	// maxLineLen bounds a request line (keys in a multi-get).
	maxLineLen = 64 << 10
	// maxSkipBytes bounds how much of an oversized value body the parser
	// will read and discard to keep the stream in sync; beyond it the
	// connection is declared desynchronized.
	maxSkipBytes = 8 << 20
)

var (
	// ErrProtocol is a malformed request (client error).
	ErrProtocol = errors.New("memproto: protocol error")
	// ErrTooLarge is an oversized key or value.
	ErrTooLarge = errors.New("memproto: key or value too large")
)

// desyncError marks a protocol error after which the parser no longer
// knows where the next request begins, so the connection must close.
type desyncError struct{ err error }

func (e *desyncError) Error() string { return e.err.Error() }
func (e *desyncError) Unwrap() error { return e.err }

func desync(err error) error { return &desyncError{err: err} }

// IsRecoverable reports whether the connection can keep serving after a
// Next error: the parser consumed the offending line (and, for storage
// commands with a parseable byte count, the data block) and is positioned
// at the start of the next request, so the server can answer CLIENT_ERROR
// and resync — real memcached's behavior. I/O errors and desynchronized
// streams are not recoverable.
func IsRecoverable(err error) bool {
	if err == nil {
		return true
	}
	var d *desyncError
	if errors.As(err, &d) {
		return false
	}
	return errors.Is(err, ErrProtocol) || errors.Is(err, ErrTooLarge)
}

// Request is one parsed client request. The Parser returns the same
// Request on every Next call: all fields, including the key and value
// byte slices, are only valid until the next Next call.
type Request struct {
	// Command is the request type.
	Command Command
	// Keys holds the key (set/delete/touch) or keys (get). The slices
	// alias parser-owned buffers; copy them to retain past the request.
	Keys [][]byte
	// Value is the payload of a set, aliasing the parser's scratch buffer.
	Value []byte
	// Flags and Exptime echo the set/touch parameters (stored opaquely).
	Flags   uint32
	Exptime int64
	// CAS is the compare-and-swap token of a cas request.
	CAS uint64
	// Delta is the incr/decr amount.
	Delta uint64
	// NoReply suppresses the response when true.
	NoReply bool
}

// Parser reads requests from a stream. It is not safe for concurrent use;
// each connection owns one Parser (servers pool them via Reset).
type Parser struct {
	r *bufio.Reader

	req    Request  // reused across Next calls
	fields [][]byte // field-split scratch
	line   []byte   // spillover scratch for lines longer than the read buffer
	key    []byte   // storage-command key scratch (must survive the body read)
	val    []byte   // value scratch: grows to the largest body seen
}

// NewParser wraps a reader.
func NewParser(r io.Reader) *Parser {
	return &Parser{r: bufio.NewReaderSize(r, 16<<10)}
}

// Reset repoints the parser at a new stream, keeping its internal buffers.
// Servers use it to pool per-connection parser state.
func (p *Parser) Reset(r io.Reader) {
	p.r.Reset(r)
}

// Buffered reports how many request bytes are already buffered. The
// server's flush-coalescing rule flushes responses only when this is zero,
// i.e. when no further pipelined requests are queued.
func (p *Parser) Buffered() int { return p.r.Buffered() }

// Next reads and parses one request. io.EOF signals a clean close. The
// returned Request is reused: it and its byte slices are invalidated by
// the following Next call. Errors for which IsRecoverable returns true
// leave the stream positioned at the next request line.
func (p *Parser) Next() (*Request, error) {
	line, err := p.readLine()
	if err != nil {
		return nil, err
	}
	p.fields = splitFields(line, p.fields[:0])
	if len(p.fields) == 0 {
		return nil, fmt.Errorf("%w: empty command line", ErrProtocol)
	}
	req := &p.req
	*req = Request{Keys: req.Keys[:0]}
	args := p.fields[1:]
	switch string(p.fields[0]) {
	case "get":
		return p.parseGet(args, CmdGet)
	case "gets":
		return p.parseGet(args, CmdGets)
	case "set":
		return p.parseStore(args, CmdSet)
	case "add":
		return p.parseStore(args, CmdAdd)
	case "replace":
		return p.parseStore(args, CmdReplace)
	case "append":
		return p.parseStore(args, CmdAppend)
	case "prepend":
		return p.parseStore(args, CmdPrepend)
	case "cas":
		return p.parseStore(args, CmdCas)
	case "incr":
		return p.parseArith(args, CmdIncr)
	case "decr":
		return p.parseArith(args, CmdDecr)
	case "delete":
		return p.parseDelete(args, CmdDelete)
	case "touch":
		return p.parseTouch(args)
	case "hotkeys":
		req.Command = CmdHotKeys
		return req, nil
	case "hkput":
		return p.parseStore(args, CmdHKPut)
	case "hkdel":
		return p.parseDelete(args, CmdHKDel)
	case "lget":
		if len(args) != 1 {
			return nil, fmt.Errorf("%w: lget requires exactly one key", ErrProtocol)
		}
		return p.parseGet(args, CmdLeaseGet)
	case "lset":
		return p.parseStore(args, CmdLeaseSet)
	case "stats":
		req.Command = CmdStats
		return req, nil
	case "flush_all":
		req.Command = CmdFlushAll
		req.NoReply = hasNoReply(args)
		return req, nil
	case "version":
		req.Command = CmdVersion
		return req, nil
	case "quit":
		req.Command = CmdQuit
		return req, nil
	default:
		return nil, fmt.Errorf("%w: unknown command %q", ErrProtocol, p.fields[0])
	}
}

// readLine returns one request line without its terminator. The returned
// slice aliases the read buffer (or p.line for oversized lines) and is
// valid until the next read. An over-limit line is consumed through its
// newline so the error is recoverable.
func (p *Parser) readLine() ([]byte, error) {
	line, err := p.r.ReadSlice('\n')
	if err == nil {
		return trimCRLF(line), nil
	}
	switch {
	case err == io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	case err != bufio.ErrBufferFull:
		return nil, err
	}
	// Line longer than the read buffer: spill into the scratch.
	p.line = append(p.line[:0], line...)
	for {
		if len(p.line) > maxLineLen {
			if err := p.drainLine(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrTooLarge, maxLineLen)
		}
		line, err = p.r.ReadSlice('\n')
		p.line = append(p.line, line...)
		switch {
		case err == nil:
			return trimCRLF(p.line), nil
		case err == io.EOF:
			return nil, io.ErrUnexpectedEOF
		case err != bufio.ErrBufferFull:
			return nil, err
		}
	}
}

// drainLine consumes the rest of the current line, discarding it.
func (p *Parser) drainLine() error {
	for {
		_, err := p.r.ReadSlice('\n')
		switch {
		case err == nil:
			return nil
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF:
			return io.ErrUnexpectedEOF
		default:
			return err
		}
	}
}

func trimCRLF(line []byte) []byte {
	line = line[:len(line)-1] // '\n'
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// splitFields splits on runs of spaces and tabs without allocating; out is
// the caller's reusable backing slice.
func splitFields(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			out = append(out, line[start:i])
		}
	}
	return out
}

func (p *Parser) parseGet(args [][]byte, cmd Command) (*Request, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%w: get requires at least one key", ErrProtocol)
	}
	for _, a := range args {
		if err := validateKey(a); err != nil {
			return nil, err
		}
		p.req.Keys = append(p.req.Keys, a)
	}
	p.req.Command = cmd
	return &p.req, nil
}

// parseStore handles the storage family:
//
//	set|add|replace|append|prepend <key> <flags> <exptime> <bytes> [noreply]
//	cas <key> <flags> <exptime> <bytes> <casid> [noreply]
//	lset <key> <flags> <exptime> <bytes> <token> [noreply]
//
// Every line field is validated before the data block is read, so a bad
// command line with a parseable byte count can skip its body and recover.
func (p *Parser) parseStore(args [][]byte, cmd Command) (*Request, error) {
	fixed := 4 // key flags exptime bytes
	if cmd == CmdCas || cmd == CmdLeaseSet {
		fixed = 5 // + casid (cas) or lease token (lset)
	}
	if len(args) < fixed || len(args) > fixed+1 {
		return nil, fmt.Errorf("%w: storage command requires %d or %d arguments", ErrProtocol, fixed, fixed+1)
	}
	// The byte count first: knowing it lets every later error skip the
	// data block and keep the stream in sync.
	size64, sizeOK := parseUint64(args[3])
	if !sizeOK {
		// No trustworthy body length: the data block, if any, will be
		// misread as command lines and rejected one by one — exactly how
		// real memcached resyncs after a bad byte count.
		return nil, fmt.Errorf("%w: bad byte count", ErrProtocol)
	}
	if size64 > maxSkipBytes {
		// Parseable but beyond what the parser will read-and-discard to
		// stay aligned; the body, if present, resyncs like a bad count.
		return nil, fmt.Errorf("%w: value of %d bytes", ErrTooLarge, size64)
	}
	size := int(size64)
	fail := func(err error) (*Request, error) {
		if derr := p.discardBody(size); derr != nil {
			// The body could not be skipped (stream truncated or broken):
			// keep the original cause but mark the stream desynchronized.
			return nil, desync(err)
		}
		return nil, err
	}
	if size > MaxValueLen {
		return fail(fmt.Errorf("%w: value of %d bytes", ErrTooLarge, size))
	}
	if err := validateKey(args[0]); err != nil {
		return fail(err)
	}
	flags, ok := parseUint32(args[1])
	if !ok {
		return fail(fmt.Errorf("%w: bad flags", ErrProtocol))
	}
	exptime, ok := parseInt64(args[2])
	if !ok {
		return fail(fmt.Errorf("%w: bad exptime", ErrProtocol))
	}
	var casID uint64
	if cmd == CmdCas || cmd == CmdLeaseSet {
		casID, ok = parseUint64(args[4])
		if !ok {
			return fail(fmt.Errorf("%w: bad cas token", ErrProtocol))
		}
	}
	noreply := false
	if len(args) == fixed+1 {
		if string(args[fixed]) != "noreply" {
			return fail(fmt.Errorf("%w: unexpected token %q", ErrProtocol, args[fixed]))
		}
		noreply = true
	}

	// The line is fully parsed. Copy the key out of the line buffer —
	// reading the body below may refill the buffer under it.
	p.key = append(p.key[:0], args[0]...)

	// Read value and trailing \r\n in one ReadFull into the scratch.
	need := size + 2
	if cap(p.val) < need {
		p.val = make([]byte, need)
	}
	body := p.val[:need]
	if _, err := io.ReadFull(p.r, body); err != nil {
		return nil, desync(fmt.Errorf("%w: short value read: %v", ErrProtocol, err))
	}
	if body[size] != '\r' || body[size+1] != '\n' {
		// The stream consumed exactly size+2 bytes; if the client's byte
		// count was right this is the next line boundary, so let the
		// connection try to continue — memcached's "bad data chunk" path.
		return nil, fmt.Errorf("%w: bad value terminator", ErrProtocol)
	}

	req := &p.req
	req.Command = cmd
	req.Keys = append(req.Keys, p.key)
	req.Value = body[:size]
	req.Flags = flags
	req.Exptime = exptime
	req.CAS = casID
	req.NoReply = noreply
	return req, nil
}

// discardBody skips a data block plus its \r\n terminator.
func (p *Parser) discardBody(size int) error {
	_, err := p.r.Discard(size + 2)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseArith handles: incr|decr <key> <delta> [noreply]
func (p *Parser) parseArith(args [][]byte, cmd Command) (*Request, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, fmt.Errorf("%w: incr/decr requires key and delta", ErrProtocol)
	}
	if err := validateKey(args[0]); err != nil {
		return nil, err
	}
	delta, ok := parseUint64(args[1])
	if !ok {
		return nil, fmt.Errorf("%w: bad delta", ErrProtocol)
	}
	req := &p.req
	req.Command = cmd
	req.Keys = append(req.Keys, args[0])
	req.Delta = delta
	req.NoReply = hasNoReply(args[2:])
	return req, nil
}

func (p *Parser) parseDelete(args [][]byte, cmd Command) (*Request, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, fmt.Errorf("%w: delete requires 1 key", ErrProtocol)
	}
	if err := validateKey(args[0]); err != nil {
		return nil, err
	}
	req := &p.req
	req.Command = cmd
	req.Keys = append(req.Keys, args[0])
	req.NoReply = hasNoReply(args[1:])
	return req, nil
}

func (p *Parser) parseTouch(args [][]byte) (*Request, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, fmt.Errorf("%w: touch requires key and exptime", ErrProtocol)
	}
	if err := validateKey(args[0]); err != nil {
		return nil, err
	}
	exptime, ok := parseInt64(args[1])
	if !ok {
		return nil, fmt.Errorf("%w: bad exptime", ErrProtocol)
	}
	req := &p.req
	req.Command = CmdTouch
	req.Keys = append(req.Keys, args[0])
	req.Exptime = exptime
	req.NoReply = hasNoReply(args[2:])
	return req, nil
}

func hasNoReply(args [][]byte) bool {
	return len(args) == 1 && string(args[0]) == "noreply"
}

func validateKey(key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrProtocol)
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: key of %d bytes", ErrTooLarge, len(key))
	}
	for _, b := range key {
		if b <= ' ' || b == 0x7f {
			return fmt.Errorf("%w: key contains control or space byte", ErrProtocol)
		}
	}
	return nil
}

// Hand-rolled numeric parsers: strconv would force a string conversion
// (an allocation) per field on the hot path.

// parseUint64 parses a decimal uint64, rejecting empty input, non-digits,
// and overflow.
func parseUint64(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseUint32 is parseUint64 range-checked to 32 bits.
func parseUint32(b []byte) (uint32, bool) {
	n, ok := parseUint64(b)
	if !ok || n > 1<<32-1 {
		return 0, false
	}
	return uint32(n), true
}

// parseInt64 parses a decimal int64 with an optional leading minus.
func parseInt64(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	n, ok := parseUint64(b)
	if !ok || n > 1<<63-1 {
		return 0, false
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
