package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// managerSet is a two-proxy deployment: either proxy can convert the
// MPEG-1 source to the H.263 the device decodes, so failover
// re-composition has a live alternative when one proxy dies.
func managerSet() profile.Set {
	return profile.Set{
		User: profile.User{
			Name: "alice",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, 30),
			},
		},
		Content: profile.Content{ID: "c", Variants: []media.Descriptor{
			{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Device: profile.Device{ID: "d", Software: profile.Software{
			Decoders: []media.Format{media.VideoH263},
		}},
		Network: profile.Network{Links: []profile.Link{
			{From: "sender", To: "p1", BandwidthKbps: 2400},
			{From: "p1", To: "d", BandwidthKbps: 1800},
			{From: "sender", To: "p2", BandwidthKbps: 2400},
			{From: "p2", To: "d", BandwidthKbps: 1800},
		}},
		Intermediaries: []profile.Intermediary{
			{
				Host: "p1", CPUMips: 1000, MemoryMB: 256,
				Services: []*service.Service{
					service.FormatConverter("conv1", media.VideoMPEG1, media.VideoH263),
				},
			},
			{
				Host: "p2", CPUMips: 800, MemoryMB: 256,
				Services: []*service.Service{
					service.FormatConverter("conv2", media.VideoMPEG1, media.VideoH263),
				},
			},
		},
	}
}

// snapshotDoc is the reference encoding of a snapshot payload: the
// session ID counter and the full ordered command log, re-encoded from
// decoded commands. The manager splices its journaled bytes instead;
// TestSnapshotPayloadMatchesMarshal pins the two to the same bytes.
type snapshotDoc struct {
	Seq     int        `json:"seq"`
	Ordered []walEvent `json:"ordered,omitempty"`
}

func newPersistent(t *testing.T, dir string, opts ManagerConfig) *Manager {
	t.Helper()
	opts.StateDir = dir
	m, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// fingerprints snapshots every session's canonical state, keyed by ID.
func fingerprints(t *testing.T, m *Manager) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, ms := range m.List() {
		fp, err := ms.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint %s: %v", ms.ID(), err)
		}
		out[ms.ID()] = fp
	}
	return out
}

func TestManagerRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{})

	ms, err := m.Create(CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if ms.ID() != "s1" {
		t.Fatalf("id = %q, want s1", ms.ID())
	}
	ms2, err := m.Create(CreateSpec{Set: managerSet()})
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	// Crash s1's primary proxy and push it through failover.
	if err := ms.ApplyFault(fault.Fault{Kind: fault.HostCrash, Host: "p1"}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if _, _, logErr := ms.Reevaluate(); logErr != nil {
		t.Fatalf("reevaluate log: %v", logErr)
	}
	if _, _, logErr := ms2.Reevaluate(); logErr != nil {
		t.Fatalf("reevaluate 2 log: %v", logErr)
	}
	// Delete the second session entirely.
	if ok, err := m.Delete(ms2.ID()); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	want := fingerprints(t, m)
	wantReserved := ms.Net().TotalReservedKbps()
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2 := newPersistent(t, dir, ManagerConfig{})
	defer m2.Close()
	got := fingerprints(t, m2)
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(got))
	}
	if got["s1"] != want["s1"] {
		t.Errorf("recovered state diverged:\n got %s\nwant %s", got["s1"], want["s1"])
	}
	r1, _ := m2.Get("s1")
	if r := r1.Net().TotalReservedKbps(); r != wantReserved {
		t.Errorf("recovered reservations = %v kbps, want %v", r, wantReserved)
	}
	// The ID counter must resume past replayed sessions, even deleted ones.
	ms3, err := m2.Create(CreateSpec{Set: managerSet()})
	if err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	if ms3.ID() != "s3" {
		t.Errorf("post-recovery id = %q, want s3", ms3.ID())
	}
}

func TestManagerDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{})
	if _, err := m.Create(CreateSpec{Set: managerSet(), Reserve: true}); err != nil {
		t.Fatal(err)
	}
	ms, _ := m.Get("s1")
	if err := ms.ApplyFault(fault.Fault{Kind: fault.LinkDown, From: "p1", To: "d"}); err != nil {
		t.Fatal(err)
	}
	ms.Reevaluate()
	want := fingerprints(t, m)
	m.Close()

	for i := 0; i < 2; i++ {
		mi := newPersistent(t, dir, ManagerConfig{})
		if got := fingerprints(t, mi); got["s1"] != want["s1"] {
			t.Fatalf("replay %d diverged:\n got %s\nwant %s", i, got["s1"], want["s1"])
		}
		mi.Close() // snapshots on close; next open replays from the snapshot
	}
}

func TestManagerSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	counters := metrics.NewCounters()
	m := newPersistent(t, dir, ManagerConfig{SnapshotEvery: 3, Counters: counters})
	if _, err := m.Create(CreateSpec{Set: managerSet(), Reserve: true}); err != nil {
		t.Fatal(err)
	}
	ms, _ := m.Get("s1")
	for i := 0; i < 7; i++ {
		if _, _, logErr := ms.Reevaluate(); logErr != nil {
			t.Fatal(logErr)
		}
	}
	if n := counters.Get(metrics.CounterJournalSnapshots); n < 2 {
		t.Fatalf("snapshots = %d, want >= 2", n)
	}
	want := fingerprints(t, m)
	lastSeq := m.LastSeq()
	m.Close()

	c2 := metrics.NewCounters()
	m2 := newPersistent(t, dir, ManagerConfig{Counters: c2})
	defer m2.Close()
	rec := m2.Recovery()
	if rec.SnapshotSeq == 0 {
		t.Error("recovery should have loaded a snapshot")
	}
	if rec.JournalRecords != 0 {
		t.Errorf("journal suffix after close-snapshot = %d records, want 0", rec.JournalRecords)
	}
	if rec.LastSeq != lastSeq {
		t.Errorf("lastSeq = %d, want %d", rec.LastSeq, lastSeq)
	}
	if got := fingerprints(t, m2); got["s1"] != want["s1"] {
		t.Errorf("compacted recovery diverged:\n got %s\nwant %s", got["s1"], want["s1"])
	}
}

func TestManagerCrashMidAppendRecoversCommitted(t *testing.T) {
	dir := t.TempDir()
	fp := journal.NewFailPoints()
	m := newPersistent(t, dir, ManagerConfig{FailPoints: fp})
	if _, err := m.Create(CreateSpec{Set: managerSet(), Reserve: true}); err != nil {
		t.Fatal(err)
	}
	ms, _ := m.Get("s1")
	committed := fingerprints(t, m)["s1"]

	// The next append tears mid-record: the fault applies in memory but
	// never commits, exactly a crash between apply and fsync.
	fp.Arm(journal.FPTornAppend, fp.Hits(journal.FPTornAppend)+1)
	err := ms.ApplyFault(fault.Fault{Kind: fault.HostCrash, Host: "p1"})
	if !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// No Close: the process "died". Recovery must truncate the torn tail
	// and land on the last committed state.
	m2 := newPersistent(t, dir, ManagerConfig{})
	defer m2.Close()
	rec := m2.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Error("recovery should have truncated the torn record")
	}
	if got := fingerprints(t, m2)["s1"]; got != committed {
		t.Errorf("recovered state includes uncommitted fault:\n got %s\nwant %s", got, committed)
	}
	if r, _ := m2.Get("s1"); r.Net().HostDown("p1") {
		t.Error("uncommitted host crash survived recovery")
	}
}

func TestManagerReconcileReleasesDeadHolds(t *testing.T) {
	dir := t.TempDir()
	fp := journal.NewFailPoints()
	m := newPersistent(t, dir, ManagerConfig{FailPoints: fp})
	if _, err := m.Create(CreateSpec{Set: managerSet(), Floor: 0.2, Reserve: true}); err != nil {
		t.Fatal(err)
	}
	ms, _ := m.Get("s1")
	if len(ms.State().Reserved) == 0 {
		t.Fatal("session should hold reservations")
	}
	onP1 := strings.Contains(strings.Join(ms.State().Path, " "), "conv1")

	// Crash the host the chain runs through: the fault record commits,
	// but the process dies on the next append (the storm's begin record)
	// before any re-plan runs — the recovered session still holds
	// bandwidth on links of a dead host.
	down := "p1"
	if !onP1 {
		down = "p2"
	}
	fp.Arm(journal.FPAppend, fp.Hits(journal.FPAppend)+2)
	if err := ms.ApplyFault(fault.Fault{Kind: fault.HostCrash, Host: down}); !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("fault err = %v, want ErrCrashed from the storm's append", err)
	}

	counters := metrics.NewCounters()
	m2 := newPersistent(t, dir, ManagerConfig{Counters: counters})
	defer m2.Close()
	r1, _ := m2.Get("s1")
	if got := r1.Net().HostDown(down); !got {
		t.Fatalf("host %s should be down after replay", down)
	}

	rep := m2.Reconcile()
	if rep.Recomposed != 1 || rep.ReleasedKbps <= 0 {
		t.Fatalf("reconcile = %+v, want 1 recomposed session with released kbps", rep)
	}
	if counters.Get(metrics.CounterRecoveryReconciled) != 1 {
		t.Error("recovery.reconciled counter not incremented")
	}
	// Zero-leak accounting: the overlay's total reserved bandwidth must
	// equal exactly what the session reports holding, and every hold must
	// sit on a usable link.
	var held float64
	for _, r := range r1.Held() {
		if !r1.Net().Usable(r.From, r.To) {
			t.Errorf("hold %s->%s sits on an unusable link", r.From, r.To)
		}
		held += r.Kbps
	}
	if total := r1.Net().TotalReservedKbps(); total != held {
		t.Errorf("overlay holds %v kbps, session accounts for %v — leak", total, held)
	}
	// The reconcile sweep journals its recomposition: a second restart
	// replays straight to the reconciled state.
	want, _ := r1.Fingerprint()
	m2.Close()
	m3 := newPersistent(t, dir, ManagerConfig{})
	defer m3.Close()
	r2, _ := m3.Get("s1")
	if got, _ := r2.Fingerprint(); got != want {
		t.Errorf("post-reconcile recovery diverged:\n got %s\nwant %s", got, want)
	}
	if rep2 := m3.Reconcile(); rep2.Recomposed != 0 {
		t.Errorf("second reconcile recomposed %d sessions, want 0", rep2.Recomposed)
	}
}

func TestManagerInMemoryWithoutStateDir(t *testing.T) {
	m, err := NewManager(ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Persistent() {
		t.Error("manager without state dir should not be persistent")
	}
	if _, err := m.Create(CreateSpec{Set: managerSet()}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.List()); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerBadSpec(t *testing.T) {
	m, _ := NewManager(ManagerConfig{})
	_, err := m.Create(CreateSpec{Set: profile.Set{}})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// TestManagerRefusesRemovedModeSnapshot feeds the manager a snapshot in
// the format the removed per-session mode wrote — a map of per-session
// command histories — and expects a refusal naming it, not a silent
// recovery of zero sessions.
func TestManagerRefusesRemovedModeSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"seq":1,"sessions":{"s1":{"create":%s,"events":[{"op":"reevaluate","id":"s1","reason":"manual"}]}}}`, spec)
	log, _, err := journal.OpenLog(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte(`{"op":"create","id":"s1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Snapshot([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(ManagerConfig{StateDir: dir})
	if err == nil {
		m.Close()
		t.Fatal("NewManager recovered a removed-mode snapshot")
	}
	if !strings.Contains(err.Error(), "removed per-session manager mode") {
		t.Fatalf("error %q does not name the removed per-session mode", err)
	}
}

// TestManagerReplaysCreateWithRetiredSeed replays a journal written
// while CreateSpec still carried a seed field. The field influenced
// nothing, so the recovered state must match a live create without it.
func TestManagerReplaysCreateWithRetiredSeed(t *testing.T) {
	spec := CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true}
	live, err := NewManager(ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if _, err := live.Create(spec); err != nil {
		t.Fatalf("live create: %v", err)
	}
	want := fingerprints(t, live)
	wantStorm, err := live.StormController().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	create, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	record := fmt.Sprintf(`{"op":"create","id":"s1","create":{"seed":1,%s}`, create[1:])
	dir := t.TempDir()
	log, _, err := journal.OpenLog(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte(record)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The first open replays the record from the journal; Close then
	// snapshots it with its original bytes, seed and all, and the second
	// open replays it from that snapshot.
	for round := 0; round < 2; round++ {
		m := newPersistent(t, dir, ManagerConfig{})
		if errs := m.Recovery().ReplayErrors; len(errs) != 0 {
			t.Fatalf("round %d: replay errors: %v", round, errs)
		}
		got := fingerprints(t, m)
		if len(got) != 1 || got["s1"] != want["s1"] {
			t.Fatalf("round %d: replayed sessions diverged:\n got %v\nwant %v", round, got, want)
		}
		if gotStorm, _ := m.StormController().Fingerprint(); gotStorm != wantStorm {
			t.Errorf("round %d: replayed controller diverged:\n got %s\nwant %s", round, gotStorm, wantStorm)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		snap := latestSnapshot(t, dir)
		if wantSnap := `{"seq":1,"ordered":[` + record + `]}`; string(snap.Data) != wantSnap {
			t.Fatalf("round %d: snapshot payload\n got %s\nwant %s", round, snap.Data, wantSnap)
		}
	}
}

// latestSnapshot loads the newest snapshot in dir, failing without one.
func latestSnapshot(t *testing.T, dir string) *journal.Snapshot {
	t.Helper()
	snap, _, err := journal.LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("no snapshot in %s", dir)
	}
	return snap
}

// TestManagerRefusesSnapshotOutOfLayout feeds the manager CRC-valid
// snapshots that decode as JSON but are not in the layout the manager
// writes. Recovery keeps the snapshot's command array verbatim for the
// next snapshot, so anything it could not splice back is refused rather
// than recovered and then lost at the next compaction.
func TestManagerRefusesSnapshotOutOfLayout(t *testing.T) {
	for _, doc := range []string{
		`{"ordered":[],"seq":1}`,
		`{"seq":1,"ordered":[]}`,
		`{"seq":1,"ordered":null}`,
		`{"seq":1 }`,
		`{"ordered":[{"op":"delete","id":"s1"}],"seq":1}`,
		`{"seq":1,"ordered":[{"op":"delete","id":"s1"}] }`,
	} {
		dir := t.TempDir()
		log, _, err := journal.OpenLog(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append([]byte(`{"op":"delete","id":"s1"}`)); err != nil {
			t.Fatal(err)
		}
		if err := log.Snapshot([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(ManagerConfig{StateDir: dir})
		if err == nil {
			m.Close()
			t.Fatalf("NewManager recovered snapshot %s", doc)
		}
		if !strings.Contains(err.Error(), "session: decoding snapshot") {
			t.Fatalf("snapshot %s: error %q is not a decoding error", doc, err)
		}
	}
}

// TestSnapshotPayloadMatchesMarshal pins the spliced snapshot payload
// to the reference encoding: json.Marshal of a snapshotDoc holding the
// payload's own decoded commands. Three rounds of reopen → mutate →
// Close cover the path where the recovered snapshot's command array is
// kept as one entry and spliced into the next snapshot.
func TestSnapshotPayloadMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{})
	var want map[string]string
	var wantCtrl string
	for round := 0; round < 4; round++ {
		if round > 0 {
			m = newPersistent(t, dir, ManagerConfig{})
			if errs := m.Recovery().ReplayErrors; len(errs) != 0 {
				t.Fatalf("round %d: replay errors: %v", round, errs)
			}
			got := fingerprints(t, m)
			if len(got) != len(want) {
				t.Fatalf("round %d: recovered %d sessions, want %d", round, len(got), len(want))
			}
			for id, fp := range want {
				if got[id] != fp {
					t.Errorf("round %d: session %s diverged:\n got %s\nwant %s", round, id, got[id], fp)
				}
			}
			if gotCtrl, _ := m.StormController().Fingerprint(); gotCtrl != wantCtrl {
				t.Errorf("round %d: controller diverged:\n got %s\nwant %s", round, gotCtrl, wantCtrl)
			}
		}
		mutateForSnapshot(t, m)
		want = fingerprints(t, m)
		var err error
		if wantCtrl, err = m.StormController().Fingerprint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}

		snap := latestSnapshot(t, dir)
		var doc snapshotDoc
		if err := json.Unmarshal(snap.Data, &doc); err != nil {
			t.Fatalf("round %d: decoding snapshot: %v", round, err)
		}
		ref, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if string(snap.Data) != string(ref) {
			t.Fatalf("round %d: snapshot payload differs from the reference encoding:\n got %s\nwant %s", round, snap.Data, ref)
		}
		ops := make(map[string]int)
		for _, ev := range doc.Ordered {
			ops[ev.Op]++
		}
		if want := 4 * (round + 1); ops["create"] != want {
			t.Fatalf("round %d: snapshot holds %d creates, want %d (ops %v)", round, ops["create"], want, ops)
		}
		for _, op := range []string{"fault", "storm", "reevaluate", "delete"} {
			if ops[op] == 0 {
				t.Fatalf("round %d: snapshot holds no %s command (ops %v)", round, op, ops)
			}
		}
	}
}

// mutateForSnapshot drives every command kind through m: creates with
// and without a reservation, a bandwidth collapse and its restore on a
// live chain's downlink (each storms the classes crossing it), a
// reevaluate and a delete.
func mutateForSnapshot(t *testing.T, m *Manager) {
	t.Helper()
	var created []*Managed
	for i := 0; i < 4; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: i%2 == 0})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		created = append(created, ms)
	}
	host, _ := chainProxy(t, created[0])
	for _, factor := range []float64{1e-4, 1e4} {
		f := fault.Fault{Kind: fault.BandwidthCollapse, From: host, To: "d", Factor: factor}
		if err := created[0].ApplyFault(f); err != nil {
			t.Fatalf("fault x%g: %v", factor, err)
		}
	}
	if _, evalErr, logErr := created[1].ReevaluateReason(ReevalManual); evalErr != nil || logErr != nil {
		t.Fatalf("reevaluate: eval=%v log=%v", evalErr, logErr)
	}
	if ok, err := m.Delete(created[3].ID()); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
}

// BenchmarkManagerSnapshot times one compacting snapshot of a durable
// manager holding 1024 creates and 256 collapse/restore fault pairs
// with their storm records — the command log a busy fault-storm daemon
// carries. Each iteration writes, fsyncs and publishes the full
// snapshot file.
func BenchmarkManagerSnapshot(b *testing.B) {
	m, err := NewManager(ManagerConfig{StateDir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var all []*Managed
	for i := 0; i < 1024; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.05 * float64(1+i%8), Reserve: true})
		if err != nil {
			b.Fatalf("create: %v", err)
		}
		all = append(all, ms)
	}
	for i := 0; i < 256; i++ {
		ms := all[(i*37)%len(all)]
		host, _ := chainProxy(b, ms)
		for _, factor := range []float64{1e-4, 1e4} {
			if err := ms.ApplyFault(fault.Fault{Kind: fault.BandwidthCollapse, From: host, To: "d", Factor: factor}); err != nil {
				b.Fatalf("fault: %v", err)
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.snapshotLocked(); err != nil {
			b.Fatal(err)
		}
	}
}
