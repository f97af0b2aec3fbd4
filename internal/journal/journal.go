// Package journal provides the durability layer under the session
// manager: an append-only write-ahead log of opaque records, each
// length-prefixed, CRC32C-checksummed and SHA-256 hash-chained to its
// predecessor, with group fsync, torn-write-tolerant recovery and
// periodic compacting snapshots (snapshot + journal-suffix replay).
//
// On-disk layout of one journal file:
//
//	header (48 bytes): magic "QOSWAL1\n" | baseSeq u64 | baseChain [32]byte
//	record:            length u32 | crc32c u32 | payload
//	payload:           seq u64 | chain [32]byte | data
//
// All integers are little-endian. The chain hash of record i is
// SHA-256(chain_{i-1} || seq_i || data_i), seeded from the file
// header's baseChain, so any bit flip, reorder or splice breaks the
// chain at the first damaged record. Recovery scans forward and
// truncates at the last record whose length, checksum, sequence number
// and chain hash all verify — a torn final write (the only damage a
// crashed appender can cause) is dropped silently, anything earlier is
// surfaced as corruption.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

const (
	walMagic   = "QOSWAL1\n"
	headerSize = 8 + 8 + 32
	// recordOverhead is the fixed bytes around a record's data.
	recordOverhead = 4 + 4 + 8 + 32
	// MaxRecord bounds a single record's data so a corrupt length field
	// cannot make recovery allocate gigabytes.
	MaxRecord = 16 << 20
)

// castagnoli is the CRC32C polynomial table (the checksum used by
// ext4/btrfs metadata and iSCSI, with hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks damage recovery cannot attribute to a torn final
// write: a bad file header, or a chain/checksum break before the tail.
var ErrCorrupt = errors.New("journal: corrupt")

// Chain is the running SHA-256 hash chained across records.
type Chain [sha256.Size]byte

// next folds one record into the chain.
func (c Chain) next(seq uint64, data []byte) Chain {
	var out Chain
	copy(out[:], c.sum(sha256.New(), nil, seq, data))
	return out
}

// sum returns the chain hash after c of the record (seq, data),
// computed with h, a SHA-256 hash it resets first, in b's array (b's
// contents are overwritten).
func (c *Chain) sum(h hash.Hash, b []byte, seq uint64, data []byte) []byte {
	h.Reset()
	h.Write(c[:])
	b = binary.LittleEndian.AppendUint64(b[:0], seq)
	h.Write(b)
	h.Write(data)
	return h.Sum(b[:0])
}

// Record is one recovered journal entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// Journal is a single open write-ahead log file. It is not
// concurrency-safe; the owning Log serializes access.
type Journal struct {
	path  string
	f     *os.File
	seq   uint64 // last appended sequence number
	chain Chain
	dirty bool
	fp    *FailPoints
	dead  error // set once a failpoint fired or the file failed

	// Append's scratch: the chain hash and the encoded record, reused
	// so an append allocates nothing once they have grown.
	h   hash.Hash
	sum []byte
	buf []byte
}

// appendRecord appends the on-disk bytes of one record to dst.
func appendRecord(dst []byte, seq uint64, chain Chain, data []byte) []byte {
	payload := len(data) + 8 + 32
	start := len(dst)
	dst = slices.Grow(dst, 8+payload)[:start+8+payload]
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payload))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	copy(buf[16:48], chain[:])
	copy(buf[48:], data)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	return dst
}

// Create starts a fresh journal file at the given chain position. The
// header is written and fsynced (and the parent directory synced) before
// Create returns, so a crash immediately after leaves a valid empty
// journal.
func Create(path string, baseSeq uint64, baseChain Chain, fp *FailPoints) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], baseSeq)
	copy(hdr[16:48], baseChain[:])
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{path: path, f: f, seq: baseSeq, chain: baseChain, fp: fp}, nil
}

// ScanResult reports what a forward scan of one journal file found.
type ScanResult struct {
	BaseSeq   uint64
	BaseChain Chain
	Records   []Record
	// Truncated is how many tail bytes failed verification — a torn
	// final append. Zero on a clean file.
	Truncated int64
	// LastSeq/LastChain are the chain position after the last valid
	// record (the base position for an empty journal).
	LastSeq   uint64
	LastChain Chain
	// validEnd is the file offset just past the last valid record.
	validEnd int64
}

// ScanFile reads a journal file without modifying it, verifying length,
// checksum, sequence and chain hash record by record, and stopping at
// the first record that fails — everything after is counted as
// truncated tail. A damaged header is ErrCorrupt: no record can be
// trusted without the base chain position.
func ScanFile(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	size := fi.Size()
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("%w: %s: short header", ErrCorrupt, filepath.Base(path))
	}
	if string(hdr[:8]) != walMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	res := &ScanResult{
		BaseSeq:  binary.LittleEndian.Uint64(hdr[8:16]),
		validEnd: headerSize,
	}
	copy(res.BaseChain[:], hdr[16:48])
	res.LastSeq, res.LastChain = res.BaseSeq, res.BaseChain

	var lenbuf [8]byte
	offset := int64(headerSize)
	for {
		if _, err := io.ReadFull(f, lenbuf[:]); err != nil {
			break // clean EOF or torn length prefix
		}
		payloadLen := binary.LittleEndian.Uint32(lenbuf[0:4])
		crc := binary.LittleEndian.Uint32(lenbuf[4:8])
		// A length past the end of the file is a torn tail: stop before
		// allocating for it (and never read past the size stat'd above,
		// should the file grow under the scan).
		if payloadLen < 8+32 || payloadLen > MaxRecord+8+32 || int64(payloadLen) > size-offset-8 {
			break
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			break
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		if seq != res.LastSeq+1 {
			break
		}
		var chain Chain
		copy(chain[:], payload[8:40])
		data := payload[40:]
		if chain != res.LastChain.next(seq, data) {
			break
		}
		res.Records = append(res.Records, Record{Seq: seq, Data: data})
		res.LastSeq, res.LastChain = seq, chain
		offset += int64(8 + payloadLen)
		res.validEnd = offset
	}
	res.Truncated = size - res.validEnd
	return res, nil
}

// Open scans an existing journal, truncates any torn tail, and positions
// the file for appending.
func Open(path string, fp *FailPoints) (*Journal, *ScanResult, error) {
	res, err := ScanFile(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if res.Truncated > 0 {
		if err := f.Truncate(res.validEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(res.validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{path: path, f: f, seq: res.LastSeq, chain: res.LastChain, fp: fp}, res, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// LastSeq returns the last appended sequence number.
func (j *Journal) LastSeq() uint64 { return j.seq }

// LastChain returns the chain hash after the last appended record.
func (j *Journal) LastChain() Chain { return j.chain }

// Append writes one record to the OS without forcing it to disk; call
// Sync to make a batch of appends durable with a single fsync (group
// commit). The assigned sequence number is returned.
func (j *Journal) Append(data []byte) (uint64, error) {
	if j.dead != nil {
		return 0, j.dead
	}
	if len(data) > MaxRecord {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(data))
	}
	if ce := j.fp.hit(FPAppend); ce != nil {
		j.dead = ce
		return 0, ce
	}
	seq := j.seq + 1
	if j.h == nil {
		j.h = sha256.New()
	}
	var chain Chain
	j.sum = j.chain.sum(j.h, j.sum, seq, data)
	copy(chain[:], j.sum)
	j.buf = appendRecord(j.buf[:0], seq, chain, data)
	rec := j.buf
	if ce := j.fp.hit(FPTornAppend); ce != nil {
		// Simulate a kill mid-write: half the record reaches the file.
		j.f.Write(rec[:len(rec)/2]) //nolint:errcheck // crashing anyway
		j.dead = ce
		return 0, ce
	}
	if _, err := j.f.Write(rec); err != nil {
		j.dead = fmt.Errorf("journal: append: %w", err)
		return 0, j.dead
	}
	j.seq, j.chain = seq, chain
	j.dirty = true
	return seq, nil
}

// Sync forces every appended record to disk. It is a no-op when nothing
// was appended since the last Sync.
func (j *Journal) Sync() error {
	if j.dead != nil {
		return j.dead
	}
	if !j.dirty {
		return nil
	}
	if ce := j.fp.hit(FPSync); ce != nil {
		j.dead = ce
		return ce
	}
	if err := j.f.Sync(); err != nil {
		j.dead = fmt.Errorf("journal: sync: %w", err)
		return j.dead
	}
	j.dirty = false
	return nil
}

// Close syncs and closes the file. A dead (crashed) journal closes the
// descriptor without syncing, like the kernel would at process exit.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	var err error
	if j.dead == nil {
		err = j.Sync()
	}
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	j.f = nil
	if j.dead == nil {
		j.dead = errors.New("journal: closed")
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", dir, err)
	}
	return nil
}
