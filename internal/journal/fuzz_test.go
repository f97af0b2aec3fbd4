package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzJournal writes a valid three-record journal and returns its bytes
// and records.
func fuzzJournal(f *testing.F) ([]byte, []Record) {
	f.Helper()
	path := filepath.Join(f.TempDir(), walName(0))
	j, err := Create(path, 0, Chain{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	var want []Record
	for _, data := range []string{"one", "two", "three"} {
		seq, err := j.Append([]byte(data))
		if err != nil {
			f.Fatal(err)
		}
		want = append(want, Record{Seq: seq, Data: []byte(data)})
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return valid, want
}

// FuzzScanFile feeds the on-disk record scanner arbitrary files: with
// whole set, data is the entire file (the fuzzer mutates the valid
// journal seeded below); otherwise data is a tail appended to that
// valid journal. ScanFile must never panic, must account for every
// byte (Truncated == size − validEnd ≥ 0), and must never lose a
// committed record to a damaged tail: records are SHA-256 chained, so
// appended bytes cannot pass as a fourth record and the scan must
// return exactly the three committed ones. A scan of the file cut at
// validEnd (what Open truncates to) must then find the same records and
// nothing to truncate.
func FuzzScanFile(f *testing.F) {
	valid, want := fuzzJournal(f)
	torn := encodeRecord(4, Chain{}, []byte("torn"))
	f.Add([]byte(nil), false)
	f.Add([]byte{0}, false)
	f.Add(torn, false)
	f.Add(torn[:len(torn)-3], false)
	// The length field of the largest record, nothing after it.
	f.Add(tornLength(MaxRecord+8+32), false)
	f.Add(valid[headerSize:], false) // records replayed after themselves
	f.Add(valid, true)
	f.Add(valid[:len(valid)-5], true)
	f.Add(valid[:headerSize], true)
	f.Add([]byte(walMagic), true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, whole bool) {
		file := data
		if !whole {
			file = append(append([]byte(nil), valid...), data...)
		}
		path := filepath.Join(dir, "scan.log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ScanFile(path)
		if len(file) < headerSize || string(file[:len(walMagic)]) != walMagic {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged header: err = %v, want ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("ScanFile: %v", err)
		}
		size := int64(len(file))
		if res.validEnd < headerSize || res.Truncated != size-res.validEnd || res.Truncated < 0 {
			t.Fatalf("size %d, validEnd %d, Truncated %d", size, res.validEnd, res.Truncated)
		}
		for i, r := range res.Records {
			if r.Seq != res.BaseSeq+uint64(i)+1 {
				t.Fatalf("record %d has seq %d after base %d", i, r.Seq, res.BaseSeq)
			}
		}
		if !whole {
			if res.validEnd != int64(len(valid)) || !sameRecords(res.Records, want) {
				t.Fatalf("appended tail changed the committed records: validEnd %d of %d, %d records",
					res.validEnd, len(valid), len(res.Records))
			}
		}
		if err := os.WriteFile(path, file[:res.validEnd], 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := ScanFile(path)
		if err != nil {
			t.Fatalf("rescan of the valid prefix: %v", err)
		}
		if again.Truncated != 0 || again.LastSeq != res.LastSeq || again.LastChain != res.LastChain ||
			!sameRecords(again.Records, res.Records) {
			t.Fatalf("rescan of the valid prefix differs: truncated %d, last seq %d vs %d",
				again.Truncated, again.LastSeq, res.LastSeq)
		}
	})
}

// tornLength is a bare 8-byte record prefix announcing a payload of n
// bytes — the tail a crash leaves after writing only the length field.
func tornLength(n uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], n)
	return b[:]
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
