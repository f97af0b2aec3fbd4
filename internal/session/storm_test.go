package session

// storm_test.go exercises the manager's class-based composition:
// sessions created through the ordinary CreateSpec path fold into storm
// equivalence classes, faults fan out through the controller one Select
// per class, and the whole construction — class membership, region
// overlays, open storms — replays byte-identically from the manager's
// single WAL.

import (
	"errors"
	"math"
	"sync"
	"testing"

	"qoschain/internal/fault"
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
func chainProxy(t *testing.T, ms *Managed) (host, conv string) {
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

// TestStormCrashMidStormResumes kills the manager after the first class
// fan-out of a two-class storm (the begin and one class record are
// journaled, the end is not) and proves a reopened manager's Reconcile
// finishes the storm to the exact state a crash-free run reaches.
func TestStormCrashMidStormResumes(t *testing.T) {
	run := func(t *testing.T, dir string, halt int) (map[string]string, string) {
		m := newPersistent(t, dir, ManagerConfig{
			Counters: metrics.NewCounters(), StormHaltAfterFanouts: halt,
		})
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
		err := ms.ApplyFault(fault.Fault{Kind: fault.LinkDown, From: host, To: "d"})
		if halt > 0 {
			if !errors.Is(err, storm.ErrHalted) {
				t.Fatalf("halted fault error = %v, want ErrHalted", err)
			}
			// Crash: close the WAL with the storm still open.
			if cerr := m.Close(); cerr != nil {
				t.Fatalf("close: %v", cerr)
			}
			m2 := newPersistent(t, dir, ManagerConfig{Counters: metrics.NewCounters()})
			defer m2.Close()
			rep := m2.Reconcile()
			if rep.Recomposed == 0 {
				t.Fatalf("reconcile resumed nothing: %+v", rep)
			}
			if leak := stormLeak(m2); leak != 0 {
				t.Fatalf("post-resume leak of %v kbps", leak)
			}
			fp, ferr := m2.StormController().Fingerprint()
			if ferr != nil {
				t.Fatalf("fingerprint: %v", ferr)
			}
			return fingerprints(t, m2), fp
		}
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		defer m.Close()
		fp, ferr := m.StormController().Fingerprint()
		if ferr != nil {
			t.Fatalf("fingerprint: %v", ferr)
		}
		return fingerprints(t, m), fp
	}

	wantSess, wantCtrl := run(t, t.TempDir(), 0)
	gotSess, gotCtrl := run(t, t.TempDir(), 1)
	if gotCtrl != wantCtrl {
		t.Errorf("resumed controller diverged from crash-free run:\n got %s\nwant %s", gotCtrl, wantCtrl)
	}
	for id, fp := range wantSess {
		if gotSess[id] != fp {
			t.Errorf("resumed session %s diverged:\n got %s\nwant %s", id, gotSess[id], fp)
		}
	}
}

// TestStormConcurrentReevaluateAndFault races manual per-session
// replans against fault-driven storms over the same classes. Run under
// -race; the invariant is the shared ledger: no double release, no
// leaked kbps, every member still accounted for.
func TestStormConcurrentReevaluateAndFault(t *testing.T) {
	m, _ := newStormManager(t)

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
			// ErrStormActive collapses to changed=false — a storm in
			// flight replans the class anyway.
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
