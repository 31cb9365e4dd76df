package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Warm-restart snapshots. On SIGTERM a node streams its resident items to
// disk and a restarted process restores them, so the node rejoins the tier
// hot instead of serving a cold cache for minutes (the paper never needed
// restarts; production does). The format reuses the migration machinery at
// both ends:
//
//   - the dump side streams each slab class through FetchTopStream, which
//     is the migration sender's read: the page-order scanner picks the
//     class (RoutePicks), CutBatches cuts the picks coldest-first and
//     AppendPicks reads each batch's values into reused buffers, so
//     extra memory is 32 bytes a picked item plus one batch, and the
//     writer allocates per class and per batch, not per pair;
//   - records are the migration frames' pair record (AppendPair);
//   - the restore side feeds batches straight into BatchImport, whose
//     head-prepend of a coldest-first stream rebuilds each class hottest
//     first by stamp, equal stamps by key hash — the dump order, which no
//     chunk address decides — with timestamps and TTLs preserved. Where
//     the source's lists were in stamp order this is their MRU order.
//
// Layout:
//
//	header  = magic "ELMS" version(1)
//	class   = uvarint(classID+1) batch* uvarint(0)   — classID 0 is real,
//	          so the class marker is shifted by one and 0 terminates
//	batch   = uvarint(pairCount>0) pair*       — pair as AppendPair writes it
//	trailer = uvarint(0) totalPairs(u64 BE) crc32(u32 BE)
//
// The CRC covers every byte before it (IEEE polynomial), so truncation and
// bit rot are both detected; RestoreSnapshot then flushes whatever it had
// partially imported and reports the error, degrading to a cold start.

// snapshotMagic opens every snapshot file.
var snapshotMagic = [4]byte{'E', 'L', 'M', 'S'}

// snapshotVersion is the current format version.
const snapshotVersion = 1

// Snapshot batch bounds: selection batches are capped by pairs and bytes
// exactly like migration pushes, so dump memory stays O(batch).
const (
	snapshotBatchPairs = 512
	snapshotBatchBytes = 1 << 20
)

// snapshot record sanity caps, protecting restore from a corrupt length
// prefix allocating gigabytes.
const (
	snapshotMaxKeyLen = maxKeyLen
	snapshotMaxValLen = PageSize
)

// ErrSnapshotCorrupt marks a snapshot file that failed validation — bad
// magic, truncated stream, or checksum mismatch. Callers log it and start
// cold; it never indicates a damaged cache.
var ErrSnapshotCorrupt = errors.New("cache: snapshot corrupt")

// crcWriter tees written bytes into a running CRC32.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// WriteSnapshot streams every resident, unexpired item to w in the
// snapshot format and returns the number of pairs written. Items are
// emitted per slab class, coldest-first within the class, in bounded
// batches; beyond the class's picks, the caller's peak extra memory is one
// batch regardless of cache size. Concurrent mutation is safe but the snapshot is only a consistent
// point-in-time image when the serving paths are quiesced first (the node
// drains connections before snapshotting).
func (c *Cache) WriteSnapshot(w io.Writer) (int, error) {
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 64<<10)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return 0, err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	total := 0
	var rec []byte // one encoded pair record, reused
	for _, classID := range c.PopulatedClasses() {
		if err := writeUvarint(uint64(classID) + 1); err != nil {
			return total, err
		}
		_, err := c.FetchTopStream(classID, math.MaxInt, nil, snapshotBatchPairs, snapshotBatchBytes, func(b StreamBatch) error {
			if err := writeUvarint(uint64(len(b.Pairs))); err != nil {
				return err
			}
			for i := range b.Pairs {
				rec = AppendPair(rec[:0], &b.Pairs[i])
				if _, err := bw.Write(rec); err != nil {
					return err
				}
			}
			total += len(b.Pairs)
			return nil
		})
		if err != nil {
			return total, err
		}
		if err := writeUvarint(0); err != nil { // class end
			return total, err
		}
	}
	if err := writeUvarint(0); err != nil { // classes end
		return total, err
	}
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], uint64(total))
	if _, err := bw.Write(tail[:]); err != nil {
		return total, err
	}
	// The CRC covers everything written so far; flush through the CRC tee
	// first so it has seen all bytes, then append the sum uncounted.
	if err := bw.Flush(); err != nil {
		return total, err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], cw.crc)
	if _, err := w.Write(sum[:]); err != nil {
		return total, err
	}
	return total, nil
}

// snapReader decodes the snapshot stream while checksumming exactly the
// bytes consumed — a read-side tee would also cover the buffered
// look-ahead and the trailing CRC field itself, so the sum is folded in at
// the consumption boundary instead.
type snapReader struct {
	br  *bufio.Reader
	crc uint32
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (sr *snapReader) ReadByte() (byte, error) {
	b, err := sr.br.ReadByte()
	if err != nil {
		return 0, err
	}
	one := [1]byte{b}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, one[:])
	return b, nil
}

// full fills p from the stream, folding it into the checksum.
func (sr *snapReader) full(p []byte) error {
	if _, err := io.ReadFull(sr.br, p); err != nil {
		return err
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, p)
	return nil
}

// uvarint reads one checksummed varint.
func (sr *snapReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(sr)
}

// RestoreSnapshot reads a snapshot produced by WriteSnapshot and imports
// its items through the batch-import path, preserving MRU order,
// timestamps, flags, and TTLs. It returns the number of pairs imported.
//
// Any validation failure — bad magic or version, truncated stream,
// checksum mismatch, oversized record — flushes everything imported so far
// and returns an error wrapping ErrSnapshotCorrupt: the cache is left
// empty and serviceable, exactly as a cold start. A snapshot is never
// allowed to crash or half-populate a node.
func (c *Cache) RestoreSnapshot(r io.Reader) (int, error) {
	sr := &snapReader{br: bufio.NewReaderSize(r, 64<<10)}
	total := 0
	fail := func(err error) (int, error) {
		c.FlushAll()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("truncated: %w", err)
		}
		return 0, fmt.Errorf("%w: %v (%d pairs discarded)", ErrSnapshotCorrupt, err, total)
	}
	var hdr [5]byte
	if err := sr.full(hdr[:]); err != nil {
		return fail(err)
	}
	if [4]byte(hdr[:4]) != snapshotMagic {
		return fail(fmt.Errorf("bad magic %q", hdr[:4]))
	}
	if hdr[4] != snapshotVersion {
		return fail(fmt.Errorf("unsupported version %d", hdr[4]))
	}
	batch := make([]KV, 0, snapshotBatchPairs)
	for {
		classMark, err := sr.uvarint()
		if err != nil {
			return fail(err)
		}
		if classMark == 0 {
			break // classes end
		}
		classID := int(classMark - 1)
		if classID >= len(c.classes) {
			return fail(fmt.Errorf("slab class %d out of range", classID))
		}
		for {
			pairCount, err := sr.uvarint()
			if err != nil {
				return fail(err)
			}
			if pairCount == 0 {
				break // class end
			}
			if pairCount > snapshotBatchPairs {
				return fail(fmt.Errorf("batch of %d pairs exceeds cap %d", pairCount, snapshotBatchPairs))
			}
			batch = batch[:0]
			for i := uint64(0); i < pairCount; i++ {
				p, err := readSnapshotPair(sr)
				if err != nil {
					return fail(err)
				}
				batch = append(batch, p)
			}
			// Batches arrive coldest-first: each import prepends at the MRU
			// head, so later (hotter) batches land in front of earlier ones
			// and within a batch pairs[len-1] ends up hottest — the exact
			// inverse of the dump order.
			n, err := c.BatchImport(batch, false)
			if err != nil {
				return fail(err)
			}
			total += n
		}
	}
	var tail [8]byte
	if err := sr.full(tail[:]); err != nil {
		return fail(err)
	}
	declared := binary.BigEndian.Uint64(tail[:])
	// Everything consumed so far is covered by the sum; the stored CRC
	// field itself is read outside the checksummed path.
	got := sr.crc
	var sum [4]byte
	if _, err := io.ReadFull(sr.br, sum[:]); err != nil {
		return fail(err)
	}
	if stored := binary.BigEndian.Uint32(sum[:]); stored != got {
		return fail(fmt.Errorf("checksum mismatch: file %08x, computed %08x", stored, got))
	}
	// Items can legitimately drop during import (slab exhaustion on a
	// smaller restart budget), so importing fewer pairs than declared is a
	// capacity signal; decoding more than declared is corruption.
	if uint64(total) > declared {
		return fail(fmt.Errorf("pair count mismatch: trailer %d, decoded %d", declared, total))
	}
	return total, nil
}

// readSnapshotPair decodes one AppendPair record off the checksummed
// stream, enforcing the restore-side length caps before it allocates.
func readSnapshotPair(sr *snapReader) (KV, error) {
	var p KV
	klen, err := sr.uvarint()
	if err != nil {
		return p, err
	}
	if klen == 0 || klen > snapshotMaxKeyLen {
		return p, fmt.Errorf("key length %d out of range", klen)
	}
	kb := make([]byte, klen)
	if err := sr.full(kb); err != nil {
		return p, err
	}
	p.Key = string(kb)
	vlen, err := sr.uvarint()
	if err != nil {
		return p, err
	}
	if vlen > snapshotMaxValLen {
		return p, fmt.Errorf("value length %d out of range", vlen)
	}
	p.Value = make([]byte, vlen)
	if err := sr.full(p.Value); err != nil {
		return p, err
	}
	var fixed [20]byte
	if err := sr.full(fixed[:]); err != nil {
		return p, err
	}
	p.Flags = binary.BigEndian.Uint32(fixed[0:])
	p.LastAccess = fromNano(int64(binary.BigEndian.Uint64(fixed[4:])))
	p.Expiry = fromNano(int64(binary.BigEndian.Uint64(fixed[12:])))
	return p, nil
}

// SnapshotFileName is the canonical snapshot file name inside a node's
// -snapshot-dir.
const SnapshotFileName = "cache.snap"

// WriteSnapshotFile atomically writes the cache's snapshot into dir: the
// stream goes to a temp file first and is renamed over
// dir/SnapshotFileName only after a successful sync, so a crash mid-dump
// never leaves a torn file where a restart would find it.
func (c *Cache) WriteSnapshotFile(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, SnapshotFileName+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := c.WriteSnapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, SnapshotFileName)); err != nil {
		return n, err
	}
	return n, nil
}

// RestoreSnapshotFile restores dir/SnapshotFileName into the cache and
// removes the file afterwards — consumed or corrupt, it must not be
// restored twice: a later crash-restart would otherwise resurrect stale
// values the tier has since overwritten. A missing file returns
// (0, fs.ErrNotExist wrapped) and leaves the cache untouched — the normal
// cold start.
func (c *Cache) RestoreSnapshotFile(dir string) (int, error) {
	path := filepath.Join(dir, SnapshotFileName)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	n, rerr := c.RestoreSnapshot(f)
	_ = f.Close()
	if err := os.Remove(path); err != nil && rerr == nil {
		rerr = err
	}
	return n, rerr
}
