package session

// storm_test.go exercises the manager's class-based composition:
// sessions created through the ordinary CreateSpec path fold into storm
// equivalence classes, faults fan out through the controller one Select
// per class, and the whole construction — class membership, region
// overlays, storm records — replays byte-identically from the manager's
// single WAL, including journals in the old three-record storm layout.

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
)

// stormSet is managerSet with every link scaled to hold a whole class
// population: storm members all reserve on the one shared region
// overlay, so the two-proxy capacities that fit a single private
// session would starve the twins.
func stormSet() profile.Set {
	set := managerSet()
	for i := range set.Network.Links {
		set.Network.Links[i].BandwidthKbps *= 100
	}
	return set
}

// newStormManager builds an in-memory manager with its own metrics
// sink.
func newStormManager(t *testing.T) (*Manager, *metrics.Counters) {
	t.Helper()
	c := metrics.NewCounters()
	m, err := NewManager(ManagerConfig{Counters: c})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m, c
}

// chainProxy resolves which proxy host a session's chain routes
// through, so tests can kill the link the chain actually uses.
func chainProxy(t testing.TB, ms *Managed) (host, conv string) {
	t.Helper()
	for _, hop := range ms.State().Path {
		switch hop {
		case "conv1":
			return "p1", "conv1"
		case "conv2":
			return "p2", "conv2"
		}
	}
	t.Fatalf("session %s routes through no converter: %v", ms.ID(), ms.State().Path)
	return "", ""
}

// stormLeak audits the shared region ledger: the sum of member holds
// must equal the overlay's reserved total, to float noise.
func stormLeak(m *Manager) float64 {
	ctrl := m.StormController()
	leak := 0.0
	for _, name := range ctrl.Regions() {
		held := ctrl.HeldKbps(name)
		reserved := ctrl.RegionNet(name).TotalReservedKbps()
		if d := reserved - held; math.Abs(d) > 1e-6*math.Max(1, math.Max(held, reserved)) {
			leak += d
		}
	}
	return leak
}

func TestStormAttachSharesClass(t *testing.T) {
	m, counters := newStormManager(t)

	// Four sessions at floor 0.3 share one fingerprint; two at floor
	// 0.5 form a second class. Only the first of each pays a Select.
	for i := 0; i < 4; i++ {
		if _, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true}); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.5, Reserve: true}); err != nil {
			t.Fatalf("create floor 0.5: %v", err)
		}
	}
	ctrl := m.StormController()
	if ctrl.Classes() != 2 {
		t.Fatalf("classes = %d, want 2", ctrl.Classes())
	}
	if ctrl.Sessions() != 6 {
		t.Fatalf("controller sessions = %d, want 6", ctrl.Sessions())
	}
	if len(ctrl.Regions()) != 1 {
		t.Fatalf("regions = %v, want exactly one shared region", ctrl.Regions())
	}
	if g := counters.Gauge(metrics.GaugeStormClassesAttached); g != 2 {
		t.Errorf("storm.classes_attached gauge = %v, want 2", g)
	}

	// Every member serves a full State off its class plan and holds
	// bandwidth on the shared overlay.
	for _, ms := range m.List() {
		st := ms.State()
		if len(st.Path) == 0 || len(st.Formats) == 0 {
			t.Errorf("session %s has empty plan: %+v", ms.ID(), st)
		}
		if len(st.Reserved) == 0 {
			t.Errorf("session %s holds no bandwidth", ms.ID())
		}
		if !st.Failover.Enabled {
			t.Errorf("session %s does not report storm failover", ms.ID())
		}
	}
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("reservation leak of %v kbps", leak)
	}

	// Deleting a member releases exactly its hold; the class survives
	// for its twins.
	ms := m.List()[0]
	if ok, err := m.Delete(ms.ID()); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if ctrl.Sessions() != 5 {
		t.Fatalf("controller sessions after delete = %d, want 5", ctrl.Sessions())
	}
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("leak after delete: %v kbps", leak)
	}
}

func TestStormFaultFansOutPerClass(t *testing.T) {
	m, counters := newStormManager(t)

	var all []*Managed
	for i := 0; i < 4; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		all = append(all, ms)
	}
	for i := 0; i < 2; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.5, Reserve: true})
		if err != nil {
			t.Fatalf("create floor 0.5: %v", err)
		}
		all = append(all, ms)
	}
	base := counters.Get(metrics.CounterStormSelectCalls)

	// Kill the downlink the chain actually uses, through ONE session.
	// The storm must replan every affected class once — never once per
	// session.
	host, conv := chainProxy(t, all[0])
	if err := all[0].ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	selects := counters.Get(metrics.CounterStormSelectCalls) - base
	if selects == 0 || selects > 2 {
		t.Fatalf("storm used %d Selects for 6 sessions in 2 classes, want 1..2", selects)
	}
	for _, ms := range all {
		st := ms.State()
		for _, hop := range st.Path {
			if hop == conv {
				t.Errorf("session %s still routes through %s's converter after the link died", ms.ID(), host)
			}
		}
	}
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("post-storm leak of %v kbps", leak)
	}

	// Manual re-evaluation replans the one class, shared by its twins.
	if _, evalErr, logErr := all[0].ReevaluateReason(ReevalManual); evalErr != nil || logErr != nil {
		t.Fatalf("reevaluate: eval=%v log=%v", evalErr, logErr)
	}
	if st := all[0].State(); st.Step != 1 {
		t.Errorf("step after reevaluate = %d, want 1", st.Step)
	}
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("post-reevaluate leak of %v kbps", leak)
	}
}

func TestStormRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})

	var all []*Managed
	for i := 0; i < 3; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		all = append(all, ms)
	}
	ms2, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.5, Reserve: true})
	if err != nil {
		t.Fatalf("create floor 0.5: %v", err)
	}
	// A fault-driven storm, a manual replan and a delete, so the
	// journal carries every command kind.
	host, _ := chainProxy(t, all[0])
	if err := all[0].ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if _, evalErr, logErr := all[1].ReevaluateReason(ReevalManual); evalErr != nil || logErr != nil {
		t.Fatalf("reevaluate: eval=%v log=%v", evalErr, logErr)
	}
	if ok, err := m.Delete(ms2.ID()); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	want := fingerprints(t, m)
	wantCtrl, err := m.StormController().Fingerprint()
	if err != nil {
		t.Fatalf("controller fingerprint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2 := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
	defer m2.Close()
	if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	got := fingerprints(t, m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d sessions, want %d", len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			t.Errorf("session %s diverged:\n got %s\nwant %s", id, got[id], fp)
		}
	}
	gotCtrl, err := m2.StormController().Fingerprint()
	if err != nil {
		t.Fatalf("recovered controller fingerprint: %v", err)
	}
	if gotCtrl != wantCtrl {
		t.Errorf("controller state diverged:\n got %s\nwant %s", gotCtrl, wantCtrl)
	}
	if leak := stormLeak(m2); leak != 0 {
		t.Fatalf("recovered leak of %v kbps", leak)
	}
	// The ID counter resumes past replayed and deleted sessions.
	ms5, err := m2.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	if ms5.ID() != "s5" {
		t.Errorf("post-recovery id = %q, want s5", ms5.ID())
	}
}

// TestStormCrashMidStormResumes kills the manager inside the journal
// batch of a two-class fault storm — before the storm record, halfway
// through it, or at the batch's fsync — and proves that a reopened
// manager's Reconcile reaches the exact controller and session state a
// crash-free run reaches, with zero leaked kbps. A crash can leave the
// fault without its storm, never part of a storm.
func TestStormCrashMidStormResumes(t *testing.T) {
	run := func(t *testing.T, point journal.FailPoint) (map[string]string, string) {
		dir := t.TempDir()
		fp := journal.NewFailPoints()
		m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters(), FailPoints: fp})
		for i := 0; i < 2; i++ {
			if _, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true}); err != nil {
				t.Fatalf("create: %v", err)
			}
			if _, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.5, Reserve: true}); err != nil {
				t.Fatalf("create floor 0.5: %v", err)
			}
		}
		ms := m.List()[0]
		host, _ := chainProxy(t, ms)
		switch point {
		case "":
		case journal.FPSync:
			fp.Arm(point, fp.Hits(point)+1)
		default: // the batch's second record: the storm's
			fp.Arm(point, fp.Hits(point)+2)
		}
		err := ms.ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"})
		if point == "" {
			if err != nil {
				t.Fatalf("fault: %v", err)
			}
			defer m.Close()
			return fingerprints(t, m), stormFingerprint(t, m)
		}
		if !journal.IsCrash(err) {
			t.Fatalf("fault error = %v, want a journal crash", err)
		}
		m.Close() //nolint:errcheck // the journal is dead; this only drops the descriptor
		m2 := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
		defer m2.Close()
		if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
			t.Fatalf("replay errors: %v", errs)
		}
		lost := point != journal.FPSync
		if pending := m2.StormController().Status().PendingLinks; (pending > 0) != lost {
			t.Fatalf("recovered with %d pending links; storm record lost = %v", pending, lost)
		}
		rep := m2.Reconcile()
		if lost && rep.Recomposed == 0 {
			t.Fatalf("reconcile re-planned nothing after losing the storm record: %+v", rep)
		}
		if leak := stormLeak(m2); leak != 0 {
			t.Fatalf("post-recovery leak of %v kbps", leak)
		}
		return fingerprints(t, m2), stormFingerprint(t, m2)
	}

	wantSess, wantCtrl := run(t, "")
	for _, point := range []journal.FailPoint{journal.FPAppend, journal.FPTornAppend, journal.FPSync} {
		t.Run(string(point), func(t *testing.T) {
			gotSess, gotCtrl := run(t, point)
			if gotCtrl != wantCtrl {
				t.Errorf("recovered controller diverged from crash-free run:\n got %s\nwant %s", gotCtrl, wantCtrl)
			}
			for id, fp := range wantSess {
				if gotSess[id] != fp {
					t.Errorf("recovered session %s diverged:\n got %s\nwant %s", id, gotSess[id], fp)
				}
			}
		})
	}
}

// TestStormCrashLosesReevaluateStorm kills the manager on the storm
// record of a reevaluate whose re-plan moves its class: replay marks
// the class for re-planning, and Reconcile's storm reaches the
// crash-free state.
func TestStormCrashLosesReevaluateStorm(t *testing.T) {
	run := func(t *testing.T, crash bool) (map[string]string, string) {
		dir := t.TempDir()
		fp := journal.NewFailPoints()
		m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters(), FailPoints: fp})
		for i := 0; i < 2; i++ {
			if _, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true}); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		ms := m.List()[0]
		host, _ := chainProxy(t, ms)
		// Down and back up: the class moves off host and stays off, so
		// the next reevaluate moves it back.
		for _, kind := range []fault.Kind{fault.LinkDown, fault.LinkUp} {
			if err := ms.ApplyFault(fault.Fault{Kind: kind, From: host, To: "d"}); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		if crash {
			fp.Arm(journal.FPAppend, fp.Hits(journal.FPAppend)+2)
		}
		changed, evalErr, logErr := ms.ReevaluateReason(ReevalManual)
		if evalErr != nil || !changed {
			t.Fatalf("reevaluate: changed=%v eval=%v", changed, evalErr)
		}
		if !crash {
			if logErr != nil {
				t.Fatalf("reevaluate: %v", logErr)
			}
			defer m.Close()
			return fingerprints(t, m), stormFingerprint(t, m)
		}
		if !journal.IsCrash(logErr) {
			t.Fatalf("reevaluate journal error = %v, want a journal crash", logErr)
		}
		m.Close() //nolint:errcheck // the journal is dead; this only drops the descriptor
		m2 := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
		defer m2.Close()
		if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
			t.Fatalf("replay errors: %v", errs)
		}
		m2.Reconcile()
		if leak := stormLeak(m2); leak != 0 {
			t.Fatalf("post-recovery leak of %v kbps", leak)
		}
		return fingerprints(t, m2), stormFingerprint(t, m2)
	}
	wantSess, wantCtrl := run(t, false)
	gotSess, gotCtrl := run(t, true)
	if gotCtrl != wantCtrl {
		t.Errorf("recovered controller diverged from crash-free run:\n got %s\nwant %s", gotCtrl, wantCtrl)
	}
	for id, fp := range wantSess {
		if gotSess[id] != fp {
			t.Errorf("recovered session %s diverged:\n got %s\nwant %s", id, gotSess[id], fp)
		}
	}
}

// twoDeviceSet is stormSet for the given device over a network that
// also links p2 to a second device, d2: a class for d2 can only route
// over p2->d2, a link no class for d ever crosses.
func twoDeviceSet(device string) profile.Set {
	set := stormSet()
	set.Network.Links = append(set.Network.Links, profile.Link{From: "p2", To: "d2", BandwidthKbps: 180000})
	set.Device.ID = device
	return set
}

// TestStormEmptyStormReplaysPendingSet runs a fault that affects no
// class — its storm spends no sequence and journals no record — then a
// create whose chain crosses the fault's link. Recovery must absorb the
// fault's links as the live empty storm did: the recovered controller
// matches the live fingerprint with nothing pending, and the next storm
// re-plans the same classes in both, not the new class over the stale
// link.
func TestStormEmptyStormReplaysPendingSet(t *testing.T) {
	run := func(t *testing.T, recover bool) (map[string]string, string, *storm.Report) {
		dir := t.TempDir()
		m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
		a, err := m.Create(CreateSpec{Set: twoDeviceSet("d"), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatalf("create d: %v", err)
		}
		before := m.StormController().Status()
		if err := a.ApplyFault(fault.Fault{Kind: fault.BandwidthRestore, From: "p2", To: "d2", Factor: 90000}); err != nil {
			t.Fatalf("fault: %v", err)
		}
		if st := m.StormController().Status(); st.Storms != before.Storms || st.PendingLinks != 0 {
			t.Fatalf("empty storm: %d storms (was %d), %d pending links; want no storm, nothing pending",
				st.Storms, before.Storms, st.PendingLinks)
		}
		b, err := m.Create(CreateSpec{Set: twoDeviceSet("d2"), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatalf("create d2: %v", err)
		}
		if path := b.State().Path; len(path) != 3 || path[1] != "conv2" {
			t.Fatalf("d2 session routes %v, want over conv2 (p2->d2)", path)
		}
		if recover {
			if err := m.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			m = newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
			if errs := m.Recovery().ReplayErrors; len(errs) != 0 {
				t.Fatalf("replay errors: %v", errs)
			}
			if pending := m.StormController().Status().PendingLinks; pending != 0 {
				t.Fatalf("recovered with %d pending links, want the empty storm's links absorbed", pending)
			}
			a, _ = m.Get(a.ID())
		}
		defer m.Close()
		sess, ctrl := fingerprints(t, m), stormFingerprint(t, m)
		host, _ := chainProxy(t, a)
		if err := a.ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"}); err != nil {
			t.Fatalf("next fault: %v", err)
		}
		if leak := stormLeak(m); leak != 0 {
			t.Fatalf("leak of %v kbps", leak)
		}
		return sess, ctrl + stormFingerprint(t, m), m.StormController().Status().LastStorm
	}
	wantSess, wantCtrl, wantRep := run(t, false)
	gotSess, gotCtrl, gotRep := run(t, true)
	if gotCtrl != wantCtrl {
		t.Errorf("recovered controller diverged from the live run:\n got %s\nwant %s", gotCtrl, wantCtrl)
	}
	for id, fp := range wantSess {
		if gotSess[id] != fp {
			t.Errorf("recovered session %s diverged:\n got %s\nwant %s", id, gotSess[id], fp)
		}
	}
	if gotRep == nil || wantRep == nil || gotRep.Storm != wantRep.Storm || gotRep.AffectedClasses != wantRep.AffectedClasses ||
		gotRep.ChangedLinks != wantRep.ChangedLinks || gotRep.AffectedClasses != 1 {
		t.Fatalf("next storm after recovery = %+v, live %+v; want the same storm over one class", gotRep, wantRep)
	}
}

// TestSnapshotCadenceCountsCommands pins SnapshotEvery to commands: a
// reevaluate journals itself and its storm's record in one batch, and
// the pair counts once, so whether a storm journaled a record never
// moves the next snapshot.
func TestSnapshotCadenceCountsCommands(t *testing.T) {
	counters := metrics.NewCounters()
	m := newPersistent(t, t.TempDir(), ManagerConfig{Counters: counters, SnapshotEvery: 4})
	defer m.Close()
	ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if _, evalErr, logErr := ms.ReevaluateReason(ReevalManual); evalErr != nil || logErr != nil {
			t.Fatalf("reevaluate %d: eval=%v log=%v", i, evalErr, logErr)
		}
		want := int64(0)
		if i == 3 {
			want = 1 // the fourth command
		}
		if got := counters.Get(metrics.CounterJournalSnapshots); got != want {
			t.Fatalf("after %d commands (%d records): %d snapshots, want %d", i+1, 1+2*i, got, want)
		}
	}
}

// stormFingerprint is the manager's controller fingerprint.
func stormFingerprint(t *testing.T, m *Manager) string {
	t.Helper()
	fp, err := m.StormController().Fingerprint()
	if err != nil {
		t.Fatalf("controller fingerprint: %v", err)
	}
	return fp
}

// TestStormFaultJournalsOneBatch pins the journal shape of a storm: a
// fault that storms appends the fault and the storm's one record with
// a single Log.Append (one fsync), as does a reevaluate.
func TestStormFaultJournalsOneBatch(t *testing.T) {
	counters := metrics.NewCounters()
	m := newPersistent(t, t.TempDir(), ManagerConfig{Counters: counters, SnapshotEvery: -1})
	defer m.Close()
	var all []*Managed
	for _, floor := range []float64{0.3, 0.5} {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: floor, Reserve: true})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		all = append(all, ms)
	}
	host, _ := chainProxy(t, all[0])
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"fault", func() error {
			return all[0].ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"})
		}},
		{"reevaluate", func() error {
			_, evalErr, logErr := all[1].ReevaluateReason(ReevalManual)
			return errors.Join(evalErr, logErr)
		}},
	} {
		appends, syncs := counters.Get(metrics.CounterJournalAppends), counters.Get(metrics.CounterJournalSyncs)
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := counters.Get(metrics.CounterJournalAppends) - appends; d != 2 {
			t.Errorf("%s journaled %d records, want the command and its storm", tc.name, d)
		}
		if d := counters.Get(metrics.CounterJournalSyncs) - syncs; d != 1 {
			t.Errorf("%s took %d fsyncs, want 1", tc.name, d)
		}
	}
}

// TestStormLegacyJournalsReplay recovers state directories written
// before a storm was one journal record (internal/session/testdata/
// legacy-storms, see its README): a snapshot holding complete
// storm-begin/storm-class/storm-end storms recovers to the fingerprints
// that code recorded, and a journal whose last storm halted after one
// class fan-out reaches that code's crash-free fingerprints after
// Reconcile.
func TestStormLegacyJournalsReplay(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-storms", "want.json"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var want map[string]struct {
		Controller string            `json:"controller"`
		Sessions   map[string]string `json:"sessions"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding fixture: %v", err)
	}
	for _, name := range []string{"complete", "halted"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join("testdata", "legacy-storms", name)
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			for _, e := range entries {
				b, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatalf("reading fixture: %v", err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
					t.Fatalf("copying fixture: %v", err)
				}
			}
			m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
			defer m.Close()
			if errs := m.Recovery().ReplayErrors; len(errs) != 0 {
				t.Fatalf("replay errors: %v", errs)
			}
			storms := m.StormController().Status().Storms
			rep := m.Reconcile()
			if name == "complete" && (rep.Recomposed != 0 || m.StormController().Status().Storms != storms) {
				t.Fatalf("a complete legacy journal left work for Reconcile: %+v", rep)
			}
			if got := stormFingerprint(t, m); got != want[name].Controller {
				t.Errorf("controller diverged:\n got %s\nwant %s", got, want[name].Controller)
			}
			got := fingerprints(t, m)
			if len(got) != len(want[name].Sessions) {
				t.Fatalf("recovered %d sessions, want %d", len(got), len(want[name].Sessions))
			}
			for id, fp := range want[name].Sessions {
				if got[id] != fp {
					t.Errorf("session %s diverged:\n got %s\nwant %s", id, got[id], fp)
				}
			}
			if leak := stormLeak(m); leak != 0 {
				t.Fatalf("leak of %v kbps", leak)
			}
		})
	}
}

// TestStormConcurrentReevaluateAndFault races manual per-session
// replans against fault-driven storms over the same classes. Run under
// -race; the invariant is the shared ledger: no double release, no
// leaked kbps, every member still accounted for.
func TestStormConcurrentReevaluateAndFault(t *testing.T) {
	m, _ := newStormManager(t)
	raceReevaluateAndFault(t, m)
}

// TestStormConcurrentCommandsReplay runs the same race on a durable
// manager, then reopens its state directory: one command order means
// the journal replays to the live controller and session state, with
// nothing left for Reconcile to re-plan.
func TestStormConcurrentCommandsReplay(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters(), SnapshotEvery: 7})
	raceReevaluateAndFault(t, m)
	want, wantCtrl := fingerprints(t, m), stormFingerprint(t, m)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2 := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
	defer m2.Close()
	if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	if got := stormFingerprint(t, m2); got != wantCtrl {
		t.Fatalf("replayed controller diverged:\n got %s\nwant %s", got, wantCtrl)
	}
	got := fingerprints(t, m2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d sessions, want %d", len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			t.Errorf("session %s diverged:\n got %s\nwant %s", id, got[id], fp)
		}
	}
	storms := m2.StormController().Status().Storms
	if rep := m2.Reconcile(); rep.Recomposed != 0 {
		t.Fatalf("reconcile re-planned %d sessions after a clean replay", rep.Recomposed)
	}
	if n := m2.StormController().Status().Storms; n != storms {
		t.Fatalf("reconcile ran a storm after a clean replay (storms %d -> %d)", storms, n)
	}
}

// raceReevaluateAndFault races manual replans of one class against
// loss-spike faults of varying rates on the link the other class
// rides, then audits the shared ledger.
func raceReevaluateAndFault(t *testing.T, m *Manager) {
	t.Helper()

	var all []*Managed
	for i := 0; i < 3; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		all = append(all, ms)
	}
	for i := 0; i < 3; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.5, Reserve: true})
		if err != nil {
			t.Fatalf("create floor 0.5: %v", err)
		}
		all = append(all, ms)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, evalErr, logErr := all[0].ReevaluateReason(ReevalManual); evalErr != nil || logErr != nil {
				t.Errorf("reevaluate: eval=%v log=%v", evalErr, logErr)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			f := fault.Fault{Kind: fault.LossSpike, From: "sender", To: "p2", LossRate: float64(i%5) / 100}
			if err := all[len(all)-1].ApplyFault(f); err != nil {
				t.Errorf("fault: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("concurrent storms leaked %v kbps", leak)
	}
	ctrl := m.StormController()
	if ctrl.Sessions() != len(all) {
		t.Fatalf("controller lost members: %d, want %d", ctrl.Sessions(), len(all))
	}
	for _, ms := range all {
		if _, ok := ctrl.MemberState(ms.ID()); !ok {
			t.Errorf("member %s vanished", ms.ID())
		}
	}
}
