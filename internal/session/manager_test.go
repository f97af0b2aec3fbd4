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

	m := newPersistent(t, dir, ManagerConfig{})
	defer m.Close()
	got := fingerprints(t, m)
	if len(got) != 1 || got["s1"] != want["s1"] {
		t.Fatalf("replayed sessions diverged:\n got %v\nwant %v", got, want)
	}
	if gotStorm, _ := m.StormController().Fingerprint(); gotStorm != wantStorm {
		t.Errorf("replayed controller diverged:\n got %s\nwant %s", gotStorm, wantStorm)
	}
}
