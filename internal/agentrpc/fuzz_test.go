package agentrpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and, when a
// frame comes out, to that frame type's payload decoder — everything the
// server runs on bytes straight off a socket. The contract:
//
//   - nothing panics, whatever the input;
//   - readFrame consumes exactly the header plus the declared payload, and
//     decoded values stay inside that payload (pairs alias it; an offer
//     never decodes more stamps than it has bytes);
//   - whatever decodes re-encodes to a frame that decodes to the same
//     fields (encode∘decode is the identity on valid inputs).
//
// Run `go test -fuzz FuzzDecodeFrame ./internal/agentrpc` (or `make fuzz`)
// to explore beyond the seeds.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&buf), typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	ts := time.Unix(1_700_000_123, 456)
	batch := appendImportBatch(nil, "sender", 3, 11, []cache.KV{
		{Key: "alpha", Value: []byte("value-1"), Flags: 7, LastAccess: ts, Expiry: ts.Add(time.Hour)},
		{Key: "beta"},
	})
	f.Add(frame(ftImportOpen, appendImportOpen(nil, "node-a", 7, 0xDEADBEEF, 16)))
	f.Add(frame(ftOpenAck, appendOpenAck(nil, 42, "")))
	f.Add(frame(ftOpenAck, appendOpenAck(nil, 0, "kaboom")))
	f.Add(frame(ftBatchAck, appendBatchAck(nil, 9, 9, 128, "")))
	f.Add(frame(ftBatchAck, appendBatchAck(nil, 3, 0, 0, "gap")))
	for cut := 0; cut <= len(batch); cut++ {
		// Every truncation of the batch payload behind an honest header: the
		// payload decoder must notice. The last one is the intact frame.
		f.Add(frame(ftImportBatch, batch[:cut]))
	}
	var offers [][]byte
	for _, maxPayload := range []int{maxFramePayload, 64} {
		if err := offerFrames("sender", offerFixture(), maxPayload, func(p []byte) error {
			offers = append(offers, append([]byte(nil), p...))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	for cut := 0; cut <= len(offers[0]); cut++ {
		// The intact one-frame offer and every truncation of it.
		f.Add(frame(ftOfferMeta, offers[0][:cut]))
	}
	for _, p := range offers[1:4] {
		f.Add(frame(ftOfferMeta, p)) // frames of a split offer
	}
	f.Add(frame(ftOfferAck, appendOfferAck(nil, "")))
	f.Add(frame(ftOfferAck, appendOfferAck(nil, "no sender")))
	for _, raw := range corruptHeaders {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := readFrame(r)
		if err != nil {
			return
		}
		defer putBuf(payload)
		if consumed := len(data) - r.Len(); consumed != frameHeaderLen+len(payload) {
			t.Fatalf("readFrame consumed %d bytes for a %d-byte payload", consumed, len(payload))
		}
		switch typ {
		case ftImportOpen:
			from, epoch, fp, window, err := decodeImportOpen(payload)
			if err != nil {
				return
			}
			from2, epoch2, fp2, window2, err := decodeImportOpen(appendImportOpen(nil, from, epoch, fp, window))
			if err != nil || from2 != from || epoch2 != epoch || fp2 != fp || window2 != window {
				t.Fatalf("importOpen round trip: (%q %d %d %d) → (%q %d %d %d, %v)",
					from, epoch, fp, window, from2, epoch2, fp2, window2, err)
			}
		case ftOpenAck:
			hw, remoteErr, err := decodeOpenAck(payload)
			if err != nil || (remoteErr == "" && payload[0] == 0) {
				// Undecodable, or an error ack with no message: the encoder
				// cannot produce one (the server's errors always carry text).
				return
			}
			hw2, remoteErr2, err := decodeOpenAck(appendOpenAck(nil, hw, remoteErr))
			if err != nil || hw2 != hw || remoteErr2 != remoteErr {
				t.Fatalf("openAck round trip: (%d %q) → (%d %q, %v)", hw, remoteErr, hw2, remoteErr2, err)
			}
		case ftBatchAck:
			seq, hw, imported, remoteErr, err := decodeBatchAck(payload)
			if err != nil || (remoteErr == "" && payload[0] == 0) {
				return // as for openAck
			}
			seq2, hw2, imported2, remoteErr2, err := decodeBatchAck(appendBatchAck(nil, seq, hw, imported, remoteErr))
			if err != nil || seq2 != seq || hw2 != hw || imported2 != imported || remoteErr2 != remoteErr {
				t.Fatalf("batchAck round trip: (%d %d %d %q) → (%d %d %d %q, %v)",
					seq, hw, imported, remoteErr, seq2, hw2, imported2, remoteErr2, err)
			}
		case ftImportBatch:
			from, epoch, seq, pairs, err := decodeImportBatch(payload)
			if err != nil {
				return
			}
			total := 0
			for _, p := range pairs {
				total += len(p.Key) + len(p.Value)
			}
			if total > len(payload) {
				t.Fatalf("decoded %d key+value bytes out of a %d-byte payload", total, len(payload))
			}
			from2, epoch2, seq2, pairs2, err := decodeImportBatch(appendImportBatch(nil, from, epoch, seq, pairs))
			if err != nil || from2 != from || epoch2 != epoch || seq2 != seq || !reflect.DeepEqual(pairs2, pairs) {
				t.Fatalf("importBatch round trip diverged (err %v):\n%+v\n%+v", err, pairs, pairs2)
			}
		case ftOfferMeta:
			var d offerDecoder
			if _, err := d.frame(payload); err != nil {
				return
			}
			stamps := 0
			for _, l := range d.lists {
				stamps += len(l)
			}
			if stamps > len(payload) {
				t.Fatalf("decoded %d stamps out of a %d-byte payload", stamps, len(payload))
			}
			// Re-encode whole and split small: both decode to the same offer.
			for _, maxPayload := range []int{maxFramePayload, len(d.from) + 64} {
				var d2 offerDecoder
				err := offerFrames(d.from, d.lists, maxPayload, func(p []byte) error {
					_, err := d2.frame(p)
					return err
				})
				if err != nil || d2.from != d.from || !reflect.DeepEqual(d2.lists, d.lists) {
					t.Fatalf("offer round trip (cap %d) diverged (err %v):\n%v\n%v", maxPayload, err, d.lists, d2.lists)
				}
			}
		case ftOfferAck:
			remoteErr, err := decodeOfferAck(payload)
			if err != nil || (remoteErr == "" && payload[0] == 0) {
				return // as for openAck
			}
			if remoteErr2, err := decodeOfferAck(appendOfferAck(nil, remoteErr)); err != nil || remoteErr2 != remoteErr {
				t.Fatalf("offerAck round trip: %q → %q, %v", remoteErr, remoteErr2, err)
			}
		}
	})
}

// FuzzDispatch feeds arbitrary request lines through the JSON control-op
// path the server runs on every non-frame line — json.Unmarshal, then
// dispatch — against a small in-process agent holding a few items. The
// contract: nothing panics, and every response is either OK or carries an
// error, never both or neither, and marshals for the reply.
//
// Run `go test -fuzz FuzzDispatch ./internal/agentrpc` (or `make fuzz`) to
// explore beyond the seeds.
func FuzzDispatch(f *testing.F) {
	for _, req := range []request{
		{Op: OpScore},
		{Op: OpSendMetadata, Retained: []string{"peer"}, TimeoutMS: 50},
		{Op: OpComputeTakes},
		{Op: OpSendData, Target: "peer", Takes: map[int]int{0: 3, 5: -1}, Retained: []string{"node", "peer"}},
		{Op: OpRelease, Retained: []string{"node", "peer"}},
		{Op: "no_such_op"},
	} {
		line, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"op":"release","retained":[]}`))
	f.Add([]byte(`{"op":"send_data","takes":{"-7":9223372036854775807},"retained":["node"]}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			return // the server drops a connection that sends this
		}
		c, err := cache.New(cache.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Set(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		reg := agent.NewRegistry()
		a, err := agent.New("node", c, reg)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(a)
		resp := (&Server{agent: a}).dispatch(&req)
		if resp.OK == (resp.Error != "") {
			t.Fatalf("op %q: response OK=%v with error %q", req.Op, resp.OK, resp.Error)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("op %q: response does not marshal: %v", req.Op, err)
		}
	})
}
