package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"qoschain/internal/metrics"
)

// Log manages one state directory: the newest snapshot plus a write-ahead
// journal of everything after it. Journal files are named by the
// sequence number they start after (wal-<baseSeq>.log), so recovery can
// order generations without trusting timestamps.
//
// Recovery algorithm (OpenLog):
//
//  1. Load the newest verifiable snapshot, skipping corrupt files and
//     abandoned temp files.
//  2. Scan every journal file in base-sequence order, verifying each
//     record's length, CRC32C and chain hash, truncating torn tails.
//  3. Replay only records with seq > snapshot seq, requiring exact
//     sequence continuity; a gap stops replay at the last trusted record.
//  4. Append into the newest journal file; delete stale generations and
//     snapshots only after recovery fully succeeded.
//
// A crash at any failpoint therefore loses at most the records that were
// never fsynced, never a committed one.
type Log struct {
	dir      string
	j        *Journal
	fp       *FailPoints
	counters *metrics.Counters
	// snapW buffers snapshot writes; Snapshot resets it onto each file.
	snapW *bufio.Writer
}

// Options tunes OpenLog.
type Options struct {
	// FailPoints injects deterministic crash sites; nil disables.
	FailPoints *FailPoints
	// Counters receives journal.* metrics; nil is a no-op sink.
	Counters *metrics.Counters
}

// Recovery reports what OpenLog reconstructed.
type Recovery struct {
	// SnapshotSeq is the sequence the loaded snapshot covers (0 without
	// a snapshot); SnapshotData is its payload (nil without one).
	SnapshotSeq  uint64
	SnapshotData []byte
	// Records is the journal suffix after the snapshot, in order.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped across journal files.
	TruncatedBytes int64
	// Skipped names corrupt or stale files recovery ignored.
	Skipped []string
	// LastSeq is the sequence number the log resumes from.
	LastSeq uint64
}

// walName renders the canonical journal file name for a base sequence.
func walName(baseSeq uint64) string { return fmt.Sprintf("wal-%016d.log", baseSeq) }

// parseWalName extracts the base sequence from a journal file name.
func parseWalName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return seq, err == nil
}

// OpenLog opens (or initializes) a state directory and recovers its
// contents. The returned Recovery is complete before any cleanup runs.
func OpenLog(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec := &Recovery{}

	snap, skipped, err := LatestSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	rec.Skipped = skipped
	baseSeq, baseChain := uint64(0), Chain{}
	if snap != nil {
		rec.SnapshotSeq, rec.SnapshotData = snap.Seq, snap.Data
		baseSeq, baseChain = snap.Seq, snap.Chain
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	type wal struct {
		base uint64
		name string
	}
	var wals []wal
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if base, ok := parseWalName(e.Name()); ok {
			wals = append(wals, wal{base, e.Name()})
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].base < wals[j].base })

	// Scan every generation oldest-first, replaying the suffix past the
	// snapshot with strict sequence continuity across files.
	lastSeq := baseSeq
	var lastValid string // newest journal file that scanned cleanly
	var stale []string   // fully consumed or unreadable generations
	for _, w := range wals {
		path := filepath.Join(dir, w.name)
		sr, err := ScanFile(path)
		if err != nil {
			// A file whose header never hit the disk carries no records;
			// recovery notes and discards it.
			rec.Skipped = append(rec.Skipped, w.name)
			stale = append(stale, w.name)
			continue
		}
		rec.TruncatedBytes += sr.Truncated
		for _, r := range sr.Records {
			if r.Seq <= lastSeq {
				continue // already covered by the snapshot or a prior file
			}
			if r.Seq != lastSeq+1 {
				// A gap between generations: nothing after it can be
				// trusted to be complete.
				rec.Skipped = append(rec.Skipped, fmt.Sprintf("%s: gap at seq %d", w.name, r.Seq))
				break
			}
			rec.Records = append(rec.Records, r)
			lastSeq = r.Seq
		}
		if lastValid != "" {
			stale = append(stale, lastValid)
		}
		lastValid = w.name
	}
	rec.LastSeq = lastSeq

	l := &Log{dir: dir, fp: opts.FailPoints, counters: opts.Counters}
	if lastValid != "" {
		j, sr, err := Open(filepath.Join(dir, lastValid), opts.FailPoints)
		if err != nil {
			return nil, nil, err
		}
		// The active file may end beyond the replayed suffix only if a
		// gap stopped replay; refuse to append after untrusted records.
		if sr.LastSeq != lastSeq {
			j.Close()
			return nil, nil, fmt.Errorf("%w: %s ends at seq %d but replay stopped at %d",
				ErrCorrupt, lastValid, sr.LastSeq, lastSeq)
		}
		l.j = j
	} else {
		j, err := Create(filepath.Join(dir, walName(baseSeq)), baseSeq, baseChain, opts.FailPoints)
		if err != nil {
			return nil, nil, err
		}
		l.j = j
	}

	// Cleanup after full recovery: stale generations, superseded
	// snapshots and abandoned temp files.
	for _, name := range stale {
		os.Remove(filepath.Join(dir, name))
	}
	l.removeStaleSnapshots(rec.SnapshotSeq)
	l.counters.Add(metrics.CounterJournalReplayed, int64(len(rec.Records)))
	l.counters.Add(metrics.CounterJournalTruncatedBytes, rec.TruncatedBytes)
	return l, rec, nil
}

// removeStaleSnapshots deletes snapshots older than keepSeq and
// abandoned temp files.
func (l *Log) removeStaleSnapshots(keepSeq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(l.dir, e.Name()))
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// Dir returns the state directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the last appended (not necessarily synced) sequence.
func (l *Log) LastSeq() uint64 { return l.j.LastSeq() }

// Append writes the given records and makes them durable with a single
// fsync — the group-commit point every caller batches through. It
// returns the sequence number of the last record.
func (l *Log) Append(records ...[]byte) (uint64, error) {
	start := time.Now()
	var last uint64
	for _, data := range records {
		seq, err := l.j.Append(data)
		if err != nil {
			return 0, err
		}
		last = seq
		l.counters.Inc(metrics.CounterJournalAppends)
	}
	syncStart := time.Now()
	if err := l.j.Sync(); err != nil {
		return 0, err
	}
	now := time.Now()
	l.counters.Inc(metrics.CounterJournalSyncs)
	l.counters.Observe(metrics.HistJournalFsyncMs, float64(now.Sub(syncStart))/float64(time.Millisecond))
	l.counters.Observe(metrics.HistJournalAppendMs, float64(now.Sub(start))/float64(time.Millisecond))
	return last, nil
}

// Snapshot durably publishes the state machine's full state at the
// current sequence and rotates the journal: a fresh generation starts at
// the snapshot, and older generations and snapshots are deleted. On a
// crash mid-rotation the old generation is still complete, so recovery
// replays through it without the snapshot's help. The snapshot's
// payload is the parts, concatenated: a caller whose state is already
// encoded in pieces hands them over as they are, and they reach the file
// through one reused buffer instead of being joined first.
func (l *Log) Snapshot(parts ...[]byte) error {
	if err := l.j.Sync(); err != nil {
		return err
	}
	seq, chain := l.j.LastSeq(), l.j.LastChain()
	if l.snapW == nil {
		l.snapW = bufio.NewWriterSize(nil, 64<<10)
	}
	if _, err := writeSnapshot(l.dir, seq, chain, parts, l.snapW, l.fp); err != nil {
		return err
	}
	if ce := l.fp.hit(FPSnapshotRename); ce != nil {
		// Crash between publishing the snapshot and rotating: poison the
		// journal so the owner stops, like the process dying here.
		l.j.dead = ce
		return ce
	}
	old := l.j.Path()
	fresh, err := Create(filepath.Join(l.dir, walName(seq)), seq, chain, l.fp)
	if err != nil {
		// The rotation target already existing means no records were
		// appended since the last rotation; the snapshot is durable and
		// keeping the current generation is safe.
		if errors.Is(err, os.ErrExist) {
			return nil
		}
		return err
	}
	l.j.Close()
	l.j = fresh
	if old != fresh.Path() {
		os.Remove(old)
	}
	l.removeStaleSnapshots(seq)
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.counters.Inc(metrics.CounterJournalSnapshots)
	return nil
}

// Close syncs and closes the active journal.
func (l *Log) Close() error { return l.j.Close() }
