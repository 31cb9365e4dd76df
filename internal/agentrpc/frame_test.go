package agentrpc

// Unit tests for the binary frame codec: header round trips, payload
// encodings, the zero-time sentinel, and rejection of truncated, corrupt or
// old-version input at every decode boundary.

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
)

func TestFrameRoundTrip(t *testing.T) {
	var netBuf bytes.Buffer
	bw := bufio.NewWriter(&netBuf)
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xEB}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(bw, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		typ, got, err := readFrame(&netBuf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d type = %d", i, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload mismatch: %d bytes vs %d", i, len(got), len(want))
		}
		putBuf(got)
	}
}

// corruptHeaders is the header rejection corpus (also seeds FuzzDecodeFrame).
var corruptHeaders = map[string][]byte{
	"bad magic":    {0x7B, frameVersion, ftImportOpen, 0, 0, 0, 0},
	"bad version":  {frameMagic, 99, ftImportOpen, 0, 0, 0, 0},
	"version 1":    {frameMagic, 1, ftImportOpen, 0, 0, 0, 0},
	"huge payload": {frameMagic, frameVersion, ftImportOpen, 0xFF, 0xFF, 0xFF, 0xFF},
	"truncated":    {frameMagic, frameVersion, ftImportOpen, 0, 0, 0, 5, 'a', 'b'},
}

func TestReadFrameRejectsCorruptHeaders(t *testing.T) {
	for name, raw := range corruptHeaders {
		if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Version 1 pairs carry no expiry: such a frame is refused outright, not
	// mis-decoded.
	_, _, err := readFrame(bytes.NewReader(corruptHeaders["version 1"]))
	if err == nil || !strings.Contains(err.Error(), "unsupported frame version 1") {
		t.Fatalf("version-1 frame: err = %v, want unsupported frame version", err)
	}
}

func TestImportOpenRoundTrip(t *testing.T) {
	b := appendImportOpen(getBuf(), "node-a", 7, 0xDEADBEEF, 16)
	from, epoch, fp, window, err := decodeImportOpen(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "node-a" || epoch != 7 || fp != 0xDEADBEEF || window != 16 {
		t.Fatalf("decoded (%q, %d, %#x, %d)", from, epoch, fp, window)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, _, err := decodeImportOpen(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
		}
	}
	putBuf(b)
}

func TestAckRoundTrips(t *testing.T) {
	b := appendOpenAck(getBuf(), 42, "")
	hw, remoteErr, err := decodeOpenAck(b)
	if err != nil || remoteErr != "" || hw != 42 {
		t.Fatalf("open ack = (%d, %q, %v)", hw, remoteErr, err)
	}
	putBuf(b)

	b = appendOpenAck(getBuf(), 0, "kaboom")
	if _, remoteErr, err := decodeOpenAck(b); err != nil || remoteErr != "kaboom" {
		t.Fatalf("open error ack = (%q, %v)", remoteErr, err)
	}
	putBuf(b)

	b = appendBatchAck(getBuf(), 9, 9, 128, "")
	seq, hw, imported, remoteErr, err := decodeBatchAck(b)
	if err != nil || remoteErr != "" || seq != 9 || hw != 9 || imported != 128 {
		t.Fatalf("batch ack = (%d, %d, %d, %q, %v)", seq, hw, imported, remoteErr, err)
	}
	putBuf(b)

	b = appendBatchAck(getBuf(), 3, 0, 0, "gap")
	seq, _, _, remoteErr, err = decodeBatchAck(b)
	if err != nil || seq != 3 || remoteErr != "gap" {
		t.Fatalf("batch error ack = (%d, %q, %v)", seq, remoteErr, err)
	}
	putBuf(b)

	if _, _, err := decodeOpenAck(nil); err == nil {
		t.Fatal("empty open ack decoded")
	}
	if _, _, _, _, err := decodeBatchAck([]byte{1}); err == nil {
		t.Fatal("truncated batch ack decoded")
	}
}

func TestImportBatchRoundTrip(t *testing.T) {
	ts := time.Unix(1_700_000_123, 456)
	pairs := []cache.KV{
		{Key: "alpha", Value: []byte("value-1"), Flags: 7, LastAccess: ts, Expiry: ts.Add(time.Hour)},
		{Key: "beta", Value: nil, Flags: 0},                     // zero times → sentinel
		{Key: strings.Repeat("k", 300), Value: make([]byte, 5)}, // multi-byte varint key length
	}
	b := appendImportBatch(getBuf(), "sender", 3, 11, pairs)
	from, epoch, seq, got, err := decodeImportBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "sender" || epoch != 3 || seq != 11 {
		t.Fatalf("header = (%q, %d, %d)", from, epoch, seq)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i].Key != pairs[i].Key || !bytes.Equal(got[i].Value, pairs[i].Value) || got[i].Flags != pairs[i].Flags {
			t.Fatalf("pair %d mismatch: %+v", i, got[i])
		}
		if !got[i].LastAccess.Equal(pairs[i].LastAccess) {
			t.Fatalf("pair %d timestamp %v, want %v", i, got[i].LastAccess, pairs[i].LastAccess)
		}
		if !got[i].Expiry.Equal(pairs[i].Expiry) || got[i].Expiry.IsZero() != pairs[i].Expiry.IsZero() {
			t.Fatalf("pair %d expiry %v, want %v", i, got[i].Expiry, pairs[i].Expiry)
		}
	}
	// Every truncation point must fail loudly, never mis-decode.
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, _, err := decodeImportBatch(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
		}
	}
	putBuf(b)
}

// TestImportBatchValueAliasing documents the zero-copy contract: decoded
// values alias the frame payload, so the payload must outlive the pairs.
func TestImportBatchValueAliasing(t *testing.T) {
	pairs := []cache.KV{{Key: "k", Value: []byte("immutable")}}
	b := appendImportBatch(getBuf(), "s", 1, 1, pairs)
	_, _, _, got, err := decodeImportBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-21] ^= 0xFF // the value's last byte: flags + two timestamps trail it
	if bytes.Equal(got[0].Value, []byte("immutable")) {
		t.Fatal("decoded value did not alias the payload — the zero-copy path regressed")
	}
}
