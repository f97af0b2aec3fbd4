package session_test

// history_test.go is the history probe: how a durable manager's state
// directory and reopen time grow with the commands it has seen, at a
// constant live population. It drives the Manager directly with the
// paper's Figure 6 profile set.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"qoschain/internal/journal"
	"qoschain/internal/session"
	"qoschain/internal/sim"
)

// dirBytes sums the sizes of the files in a state directory.
func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestNamedCreateRecordSize pins what a create of a known region
// journals on Figure 6: the first create carries the whole profile set,
// every later one the region's name and the per-user profiles, at most
// 2,000 bytes.
func TestNamedCreateRecordSize(t *testing.T) {
	dir := t.TempDir()
	m, err := session.NewManager(session.ManagerConfig{StateDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Create(session.CreateSpec{Set: sim.Figure6Set(), Floor: 0.3, Reserve: true}); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := journal.LatestSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("latest snapshot: %v, %v", snap, err)
	}
	var doc struct {
		Ordered []json.RawMessage `json:"ordered"`
	}
	if err := json.Unmarshal(snap.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Ordered) != 2 {
		t.Fatalf("snapshot holds %d commands, want the 2 creates", len(doc.Ordered))
	}
	full, named := len(doc.Ordered[0]), len(doc.Ordered[1])
	t.Logf("Figure 6 create records: first %d B, later %d B", full, named)
	if named > 2000 || named >= full {
		t.Fatalf("a create of a known region journals %d B (the region's first %d B); want at most 2000", named, full)
	}
}

// BenchmarkHistoryProbe keeps 32 live reserving Figure 6 sessions
// through N create+delete cycles on a durable manager, closes it, and
// times reopening its state directory (ns/op). It reports the state
// directory's bytes after the cycles (deterministic), and the mean cost
// of one cycle in ms.
//
//	go test -run '^$' -bench HistoryProbe -benchtime 5x ./internal/session/
func BenchmarkHistoryProbe(b *testing.B) {
	for _, cycles := range []int{0, 1000, 4000} {
		b.Run(fmt.Sprintf("cycles=%d", cycles), func(b *testing.B) {
			dir := b.TempDir()
			m, err := session.NewManager(session.ManagerConfig{StateDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			spec := session.CreateSpec{Set: sim.Figure6Set(), Floor: 0.3, Reserve: true}
			for i := 0; i < 32; i++ {
				if _, err := m.Create(spec); err != nil {
					b.Fatalf("create: %v", err)
				}
			}
			start := time.Now()
			for i := 0; i < cycles; i++ {
				ms, err := m.Create(spec)
				if err != nil {
					b.Fatalf("cycle %d create: %v", i, err)
				}
				if _, err := m.Delete(ms.ID()); err != nil {
					b.Fatalf("cycle %d delete: %v", i, err)
				}
			}
			cycleMs := float64(time.Since(start).Microseconds()) / 1000 / float64(max(cycles, 1))
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			stateBytes := dirBytes(b, dir)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := session.NewManager(session.ManagerConfig{StateDir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := len(m.List()); n != 32 {
					b.Fatalf("reopened %d sessions, want 32", n)
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(stateBytes), "state-B")
			if cycles > 0 {
				b.ReportMetric(cycleMs, "cycle-ms")
			}
		})
	}
}
