package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// openDir is a test helper opening a Log and failing the test on error.
func openDir(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openDir(t, dir, Options{})
	if rec.SnapshotData != nil || len(rec.Records) != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	if _, err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Data, want[i]) {
			t.Fatalf("record %d = {%d %q}", i, r.Seq, r.Data)
		}
	}
	// Appends continue the sequence.
	seq, err := l2.Append([]byte("four"))
	if err != nil || seq != 4 {
		t.Fatalf("Append after recovery = (%d, %v)", seq, err)
	}
}

func TestRecoverEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with zero records: recovery is empty, not an error.
	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 0 || rec.TruncatedBytes != 0 || rec.LastSeq != 0 {
		t.Fatalf("empty journal recovery = %+v", rec)
	}
}

func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("committed-1"), []byte("committed-2")); err != nil {
		t.Fatal(err)
	}
	path := l.j.Path()
	l.Close()

	// Append a full record by hand, then chop it mid-payload — the torn
	// final write of a crashed appender.
	sr, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendRecord(nil, sr.LastSeq+1, sr.LastChain.next(sr.LastSeq+1, []byte("torn")), []byte("torn"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec2 := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec2.Records))
	}
	if rec2.TruncatedBytes != int64(len(rec)-5) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec2.TruncatedBytes, len(rec)-5)
	}
	// The torn tail was physically truncated: appends continue cleanly
	// and a further recovery sees no damage.
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 3 {
		t.Fatalf("Append after truncation = (%d, %v)", seq, err)
	}
	l2.Close()
	_, rec3 := openDir(t, dir, Options{})
	if rec3.TruncatedBytes != 0 || len(rec3.Records) != 3 {
		t.Fatalf("second recovery = %+v", rec3)
	}
}

// TestScanTornLengthAllocatesLittle scans a journal whose tail is only
// the length prefix of the largest record a file may hold: the scan must
// count the 8 bytes as truncated without allocating the 16 MiB payload
// the length field announces.
func TestScanTornLengthAllocatesLittle(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName(0))
	j, err := Create(path, 0, Chain{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tornLength(MaxRecord + 8 + 32)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ScanFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Truncated != 8 {
		t.Fatalf("scan = %d records, %d truncated bytes; want 1 and 8", len(res.Records), res.Truncated)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("scan allocated %d bytes for an 8-byte torn tail, want < 1 MiB", alloc)
	}
}

func TestRecoverBitFlippedChecksum(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("good-1"), []byte("good-2"), []byte("good-3")); err != nil {
		t.Fatal(err)
	}
	path := l.j.Path()
	l.Close()

	// Flip one bit in the last record's payload.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records after bit flip, want 2", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("bit-flipped record not counted as truncated")
	}
	if string(rec.Records[1].Data) != "good-2" {
		t.Fatalf("last trusted record = %q", rec.Records[1].Data)
	}
}

func TestChainHashDetectsSplicedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("aaaa"), []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	path := l.j.Path()
	l.Close()

	// Rewrite record 2 with a valid CRC but a chain hash that skips
	// record 1 — a splice the checksum alone would accept.
	sr, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spliced := appendRecord(nil, 2, sr.BaseChain.next(2, []byte("evil")), []byte("evil"))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := appendRecord(nil, 1, sr.BaseChain.next(1, []byte("aaaa")), []byte("aaaa"))
	buf = append(buf[:headerSize+len(first)], spliced...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openDir(t, dir, Options{})
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "aaaa" {
		t.Fatalf("splice not stopped by chain hash: %+v", rec.Records)
	}
}

func TestSnapshotWithEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("s1"), []byte("s2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state-at-2")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Snapshot present, journal suffix empty: state comes wholly from
	// the snapshot.
	l2, rec := openDir(t, dir, Options{})
	if string(rec.SnapshotData) != "state-at-2" || rec.SnapshotSeq != 2 {
		t.Fatalf("snapshot recovery = seq %d data %q", rec.SnapshotSeq, rec.SnapshotData)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("expected empty journal suffix, got %d records", len(rec.Records))
	}
	if rec.LastSeq != 2 {
		t.Fatalf("LastSeq = %d, want 2", rec.LastSeq)
	}
	// The sequence continues across the snapshot boundary.
	if seq, err := l2.Append([]byte("s3")); err != nil || seq != 3 {
		t.Fatalf("Append after snapshot = (%d, %v)", seq, err)
	}
	l2.Close()

	l3, rec3 := openDir(t, dir, Options{})
	defer l3.Close()
	if rec3.SnapshotSeq != 2 || len(rec3.Records) != 1 || rec3.Records[0].Seq != 3 {
		t.Fatalf("snapshot+suffix recovery = %+v", rec3)
	}
}

func TestDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("r1"), []byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("r3")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recover := func() *Recovery {
		l, rec := openDir(t, dir, Options{})
		l.Close()
		return rec
	}
	a, b := recover(), recover()
	if a.SnapshotSeq != b.SnapshotSeq || string(a.SnapshotData) != string(b.SnapshotData) {
		t.Fatalf("snapshot differs across replays: %d/%q vs %d/%q",
			a.SnapshotSeq, a.SnapshotData, b.SnapshotSeq, b.SnapshotData)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Seq != b.Records[i].Seq || !bytes.Equal(a.Records[i].Data, b.Records[i].Data) {
			t.Fatalf("record %d differs across replays", i)
		}
	}
	if a.LastSeq != b.LastSeq || a.TruncatedBytes != b.TruncatedBytes {
		t.Fatalf("replay metadata differs: %+v vs %+v", a, b)
	}
}

func TestSnapshotCompactsAndRotates(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("compacted")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Exactly one snapshot and one journal generation remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, logs int
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok {
			snaps++
		}
		if _, ok := parseWalName(e.Name()); ok {
			logs++
		}
	}
	if snaps != 1 || logs != 1 {
		t.Fatalf("after compaction: %d snapshots, %d journals", snaps, logs)
	}
	_, rec := openDir(t, dir, Options{})
	if rec.SnapshotSeq != 10 || len(rec.Records) != 1 || rec.Records[0].Seq != 11 {
		t.Fatalf("post-compaction recovery = snapshot %d + %d records", rec.SnapshotSeq, len(rec.Records))
	}
}

func TestFailpointTornAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailPoints()
	fp.Arm(FPTornAppend, 3)
	l, _ := openDir(t, dir, Options{FailPoints: fp})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	_, err := l.Append([]byte("c"))
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Point != FPTornAppend {
		t.Fatalf("expected torn-append crash, got %v", err)
	}
	// Every later operation reports the crash.
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append = %v", err)
	}

	// Recovery drops the torn record and keeps the committed prefix.
	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("torn-append recovery = %d records, %d truncated", len(rec.Records), rec.TruncatedBytes)
	}
}

func TestFailpointSnapshotTempLeavesOldState(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailPoints()
	fp.Arm(FPSnapshotTemp, 1)
	l, _ := openDir(t, dir, Options{FailPoints: fp})
	if _, err := l.Append([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("never-published")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("snapshot crash = %v", err)
	}

	// The unpublished temp file is ignored and cleaned; the journal
	// still replays everything.
	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if rec.SnapshotData != nil {
		t.Fatalf("unpublished snapshot surfaced: %q", rec.SnapshotData)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(files) != 0 {
		t.Fatalf("temp files survived recovery: %v", files)
	}
}

func TestFailpointSnapshotRenameKeepsBothPaths(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailPoints()
	fp.Arm(FPSnapshotRename, 1)
	l, _ := openDir(t, dir, Options{FailPoints: fp})
	if _, err := l.Append([]byte("a"), []byte("b"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("published")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("snapshot crash = %v", err)
	}

	// The snapshot is published but the old journal generation was never
	// rotated out: recovery must use the snapshot and replay an empty
	// suffix — not double-apply the journaled records.
	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if string(rec.SnapshotData) != "published" || rec.SnapshotSeq != 3 {
		t.Fatalf("snapshot = seq %d data %q", rec.SnapshotSeq, rec.SnapshotData)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("journal records at or below the snapshot replayed again: %d", len(rec.Records))
	}
	if rec.LastSeq != 3 {
		t.Fatalf("LastSeq = %d, want 3", rec.LastSeq)
	}
}

func TestFailpointSyncPoisons(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailPoints()
	fp.Arm(FPSync, 2)
	l, _ := openDir(t, dir, Options{FailPoints: fp})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	_, err := l.Append([]byte("b"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync crash = %v", err)
	}
	// Recovery may or may not see the unsynced record (here it does,
	// since the write reached the file); both are within the contract.
	l2, rec := openDir(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) < 1 {
		t.Fatalf("synced record lost: %d records", len(rec.Records))
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openDir(t, dir, Options{})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Forge a newer snapshot with a corrupt checksum.
	bad := filepath.Join(dir, snapshotName(99))
	if err := os.WriteFile(bad, []byte("QOSSNAP\nxxxxxxxxgarbage-that-wont-verify"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openDir(t, dir, Options{})
	if string(rec.SnapshotData) != "good" || rec.SnapshotSeq != 1 {
		t.Fatalf("fallback snapshot = seq %d data %q", rec.SnapshotSeq, rec.SnapshotData)
	}
	found := false
	for _, s := range rec.Skipped {
		if s == snapshotName(99) {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt snapshot not reported skipped: %v", rec.Skipped)
	}
}

// TestSnapshotFileLayout pins the on-disk snapshot bytes for a fixed
// payload — magic | seq | chain | crc32c(len|data) | len | data, little
// endian — and reads the file back through the recovery reader.
func TestSnapshotFileLayout(t *testing.T) {
	dir := t.TempDir()
	var chain Chain
	for i := range chain {
		chain[i] = byte(i)
	}
	data := []byte(`{"seq":3,"ordered":[{"op":"delete","id":"s1"}]}`)
	path, err := WriteSnapshot(dir, 42, chain, data, nil)
	if err != nil {
		t.Fatal(err)
	}

	lenData := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	want := []byte(snapMagic)
	want = binary.LittleEndian.AppendUint64(want, 42)
	want = append(want, chain[:]...)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(append(lenData, data...), castagnoli))
	want = append(want, lenData...)
	want = append(want, data...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot file:\n got %x\nwant %x", got, want)
	}
	if crc := binary.LittleEndian.Uint32(got[48:52]); crc != 0xe42105f1 {
		t.Errorf("crc = %#08x", crc)
	}

	s, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seq != 42 || s.Chain != chain || !bytes.Equal(s.Data, data) {
		t.Fatalf("read back seq %d chain %x data %q", s.Seq, s.Chain, s.Data)
	}
}

// TestAppendWarmAllocatesNothing pins Append's scratch reuse: once its
// hash and record buffer have grown, appending a record allocates
// nothing.
func TestAppendWarmAllocatesNothing(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), walName(0)), 0, Chain{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	data := bytes.Repeat([]byte("x"), 2000)
	if _, err := j.Append(data); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { j.Append(data) }); n != 0 { //nolint:errcheck
		t.Fatalf("warm Append allocates %.0f times, want 0", n)
	}
}
