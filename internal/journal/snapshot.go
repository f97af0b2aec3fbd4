package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshots compact the journal: the full state-machine state is written
// once, stamped with the sequence number and chain hash it covers, and
// every record at or below that sequence becomes garbage. Recovery loads
// the newest verifiable snapshot and replays only the journal suffix.
//
// Snapshot file layout:
//
//	magic "QOSSNAP\n" | seq u64 | chain [32]byte | crc32c u32 | len u32 | data
//
// The write is crash-safe the boring, correct way: temp file, fsync,
// rename into place, fsync the directory. A crash at any instant leaves
// either the old snapshot set or the old set plus a complete new one —
// never a half-written file that parses.

const snapMagic = "QOSSNAP\n"
const snapHeader = 8 + 8 + 32 + 4 + 4

// snapshotName renders the canonical file name for a snapshot at seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// parseSnapshotName extracts the sequence from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	return seq, err == nil
}

// WriteSnapshot durably publishes a snapshot of the state machine at the
// given chain position and returns its path.
func WriteSnapshot(dir string, seq uint64, chain Chain, data []byte, fp *FailPoints) (string, error) {
	return writeSnapshot(dir, seq, chain, [][]byte{data}, nil, fp)
}

// writeSnapshot is WriteSnapshot of the payload the parts concatenate
// to. With w non-nil the parts go to the file through w, reset onto it,
// so many small parts cost few writes; without, each part is one write.
func writeSnapshot(dir string, seq uint64, chain Chain, parts [][]byte, w *bufio.Writer, fp *FailPoints) (string, error) {
	// Header and payload are written separately so the payload is never
	// copied; the CRC covers the length field followed by the payload.
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	var hdr [snapHeader]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	copy(hdr[16:48], chain[:])
	binary.LittleEndian.PutUint32(hdr[52:56], uint32(size))
	crc := crc32.Checksum(hdr[52:56], castagnoli)
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint32(hdr[48:52], crc)

	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	var out io.Writer = f
	if w != nil {
		w.Reset(f)
		out = w
	}
	_, err = out.Write(hdr[:])
	for _, p := range parts {
		if err != nil {
			break
		}
		_, err = out.Write(p)
	}
	if w != nil {
		if err == nil {
			err = w.Flush()
		}
		w.Reset(nil)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	if ce := fp.hit(FPSnapshotTemp); ce != nil {
		return "", ce
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// Snapshot is one recovered snapshot.
type Snapshot struct {
	Seq   uint64
	Chain Chain
	Data  []byte
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(buf) < snapHeader || string(buf[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s: bad header", ErrCorrupt, filepath.Base(path))
	}
	dataLen := binary.LittleEndian.Uint32(buf[52:56])
	if int(dataLen) != len(buf)-snapHeader {
		return nil, fmt.Errorf("%w: snapshot %s: length mismatch", ErrCorrupt, filepath.Base(path))
	}
	if crc32.Checksum(buf[52:], castagnoli) != binary.LittleEndian.Uint32(buf[48:52]) {
		return nil, fmt.Errorf("%w: snapshot %s: checksum mismatch", ErrCorrupt, filepath.Base(path))
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(buf[8:16]), Data: buf[56:]}
	copy(s.Chain[:], buf[16:48])
	return s, nil
}

// LatestSnapshot returns the newest verifiable snapshot in dir (nil when
// none exists) and the names of files it had to skip: corrupt snapshots
// and abandoned temp files. Skipped files are not deleted here — the
// caller decides after recovery succeeds.
func LatestSnapshot(dir string) (*Snapshot, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	type cand struct {
		seq  uint64
		name string
	}
	var cands []cand
	var skipped []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			skipped = append(skipped, e.Name())
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok {
			cands = append(cands, cand{seq, e.Name()})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		s, err := readSnapshot(filepath.Join(dir, c.name))
		if err != nil {
			skipped = append(skipped, c.name)
			continue
		}
		return s, skipped, nil
	}
	return nil, skipped, nil
}
