package memproto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// writeLog records every write the ReplyWriter makes.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.sizes = append(l.sizes, len(p))
	return l.Buffer.Write(p)
}

// TestReplyWriterCap: replies adding up to several times the cap come out
// byte-exact in order; the buffer never grows past the cap; a write is
// either at most the cap or a value sent from the caller's slice; and Flush
// hands the buffer back.
func TestReplyWriterCap(t *testing.T) {
	var out writeLog
	rw := NewReplyWriter(&out)
	var want bytes.Buffer
	sizes := []int{1, 700, 8 << 10, 40 << 10, MaxReplyBuffer - 100, MaxReplyBuffer + 1, MaxValueLen, 5}
	for i := 0; i < 4; i++ {
		for j, size := range sizes {
			key := []byte(fmt.Sprintf("k%d-%d", i, j))
			value := bytes.Repeat([]byte{byte('a' + j)}, size)
			if j%2 == 0 {
				_ = rw.Value(key, uint32(j), value)
				fmt.Fprintf(&want, "VALUE %s %d %d\r\n%s\r\n", key, j, size, value)
			} else {
				_ = rw.ValueCAS(key, uint32(j), value, uint64(i))
				fmt.Fprintf(&want, "VALUE %s %d %d %d\r\n%s\r\n", key, j, size, i, value)
			}
			if cap(rw.buf) > MaxReplyBuffer {
				t.Fatalf("buffer grew to %d bytes, cap %d", cap(rw.buf), MaxReplyBuffer)
			}
		}
		_ = rw.End()
		want.WriteString("END\r\n")
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("replies differ from the rendered blocks")
	}
	if cap(rw.buf) != 0 {
		t.Fatalf("Flush left a %d-byte buffer", cap(rw.buf))
	}
	for _, n := range out.sizes {
		if n > MaxReplyBuffer && n != MaxReplyBuffer+1 && n != MaxValueLen {
			t.Fatalf("a %d-byte write is neither buffered replies nor one value", n)
		}
	}
}

// TestReplyWriterAppendValue: after MakeRoom a block up to 16 KiB lands in
// place without a write; a block that does not fit the room left renders
// nothing and reports false.
func TestReplyWriterAppendValue(t *testing.T) {
	var out writeLog
	rw := NewReplyWriter(&out)
	small := bytes.Repeat([]byte{'s'}, inPlaceRoom-valueBlockLen([]byte("k"), nil))
	appended := 0
	for appended*len(small) < 3*MaxReplyBuffer {
		if err := rw.MakeRoom(); err != nil {
			t.Fatal(err)
		}
		if !rw.AppendValue([]byte("k"), 0, small, 0, false) {
			t.Fatalf("block %d did not fit after MakeRoom", appended)
		}
		appended++
	}
	if rw.AppendValue([]byte("k"), 0, make([]byte, MaxReplyBuffer), 0, false) {
		t.Fatal("a block past the cap was appended")
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	block := fmt.Sprintf("VALUE k 0 %d\r\n%s\r\n", len(small), small)
	if out.String() != string(bytes.Repeat([]byte(block), appended)) {
		t.Fatal("in-place blocks differ from the rendered blocks")
	}
}

type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errors.New("broken pipe")
}

// TestReplyWriterStickyError: after a failed write every reply and Flush
// return the error, nothing more is written, and the buffer stays bounded.
func TestReplyWriterStickyError(t *testing.T) {
	var fw failWriter
	rw := NewReplyWriter(&fw)
	_ = rw.Stored()
	if err := rw.Flush(); err == nil {
		t.Fatal("Flush on a broken stream returned nil")
	}
	for i := 0; i < 100; i++ {
		if err := rw.Value([]byte("k"), 0, make([]byte, 8<<10)); err == nil {
			t.Fatal("a reply after a failed write returned nil")
		}
		if cap(rw.buf) > MaxReplyBuffer {
			t.Fatalf("buffer grew to %d bytes after the error", cap(rw.buf))
		}
	}
	if err := rw.Flush(); err == nil || fw.writes != 1 {
		t.Fatalf("Flush = %v after %d writes, want the sticky error after 1", err, fw.writes)
	}
}
