package session

// regions_test.go covers how the journal holds a region's
// infrastructure once: the first create of a region journals the whole
// profile set, later creates name the region (createRecord), and replay
// must rebuild exactly the live state from that.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// regionSet is stormSet over one of two distinct regions: the same
// hosts and services, with region 1's links at a different capacity,
// so the two infrastructures name different regions.
func regionSet(region int) profile.Set {
	set := stormSet()
	if region == 1 {
		for i := range set.Network.Links {
			set.Network.Links[i].BandwidthKbps *= 2
		}
	}
	return set
}

// liveState renders everything replay must rebuild: every session's
// State JSON in ID order, the controller fingerprint and every region
// overlay.
func liveState(t *testing.T, m *Manager) string {
	t.Helper()
	var b strings.Builder
	for _, ms := range m.List() {
		fp, err := ms.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint %s: %v", ms.ID(), err)
		}
		b.WriteString(fp + "\n")
	}
	b.WriteString(stormFingerprint(t, m) + "\n")
	ctrl := m.StormController()
	for _, name := range ctrl.Regions() {
		b.WriteString("region " + name + "\n" + overlayState(ctrl.RegionNet(name)))
	}
	return b.String()
}

// copyDir copies a state directory, so a test can reopen the journal a
// live manager still holds.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// randomFault draws a fault of any kind against stormSet's hosts,
// links and services.
func randomFault(rng *rand.Rand) fault.Fault {
	links := stormSet().Network.Links
	l := links[rng.Intn(len(links))]
	host := []string{"p1", "p2"}[rng.Intn(2)]
	svc := []service.ID{"conv1", "conv2"}[rng.Intn(2)]
	switch rng.Intn(10) {
	case 0:
		return fault.Fault{AtStep: 1, Kind: fault.HostCrash, Host: host}
	case 1:
		return fault.Fault{AtStep: 1, Kind: fault.HostRecover, Host: host}
	case 2:
		return fault.Fault{AtStep: 1, Kind: fault.LinkDown, From: l.From, To: l.To}
	case 3:
		return fault.Fault{AtStep: 1, Kind: fault.LinkUp, From: l.From, To: l.To}
	case 4:
		return fault.Fault{AtStep: 1, Kind: fault.BandwidthCollapse, From: l.From, To: l.To, Factor: 0.05 + rng.Float64()}
	case 5:
		return fault.Fault{AtStep: 1, Kind: fault.BandwidthRestore, From: l.From, To: l.To, Factor: l.BandwidthKbps * (0.5 + rng.Float64())}
	case 6:
		return fault.Fault{AtStep: 1, Kind: fault.LossSpike, From: l.From, To: l.To, LossRate: rng.Float64() / 2}
	case 7:
		return fault.Fault{AtStep: 1, Kind: fault.DelaySpike, From: l.From, To: l.To, DelayMs: float64(rng.Intn(200))}
	case 8:
		return fault.Fault{AtStep: 1, Kind: fault.ServiceDown, Service: svc}
	default:
		return fault.Fault{AtStep: 1, Kind: fault.ServiceUp, Service: svc}
	}
}

// randomCommand runs one command on m: a create over either region, a
// delete of any live session (a region's first creator included), a
// fault of any kind or a reevaluate. A create that composes nothing, a
// refused fault or a reevaluate that composes nothing is part of the
// state machine; a journal failure is not.
func randomCommand(t *testing.T, rng *rand.Rand, m *Manager) {
	t.Helper()
	live := m.List()
	op := rng.Intn(9)
	if len(live) == 0 {
		op = 0
	}
	switch {
	case op < 3:
		spec := CreateSpec{Set: regionSet(rng.Intn(2)), Floor: []float64{0.3, 0.5}[rng.Intn(2)], Reserve: rng.Intn(3) > 0}
		if _, err := m.Create(spec); errors.Is(err, ErrJournal) {
			t.Fatalf("create: %v", err)
		}
	case op < 4:
		if _, err := m.Delete(live[rng.Intn(len(live))].ID()); err != nil {
			t.Fatalf("delete: %v", err)
		}
	case op < 7:
		if err := live[rng.Intn(len(live))].ApplyFault(randomFault(rng)); errors.Is(err, ErrJournal) {
			t.Fatalf("fault: %v", err)
		}
	default:
		if _, _, logErr := live[rng.Intn(len(live))].Reevaluate(); logErr != nil {
			t.Fatalf("reevaluate: %v", logErr)
		}
	}
}

// namedCreates counts the creates in m's command log that name their
// region instead of carrying its infrastructure.
func namedCreates(t *testing.T, m *Manager) (named, full int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, raw := range m.ordered {
		var evs []walEvent
		if err := json.Unmarshal(append(append([]byte("["), raw...), ']'), &evs); err != nil {
			t.Fatalf("ordered entry: %v", err)
		}
		for _, ev := range evs {
			switch {
			case ev.Op != "create":
			case ev.Create.Region != "":
				named++
			default:
				full++
			}
		}
	}
	return named, full
}

// TestNamedCreateReplayOracle runs seeded random command sequences over
// two regions with every snapshot cadence from 1 to 7, reopening a copy
// of the state directory after every command: the reopened manager's
// sessions, controller and region overlays must equal the live ones.
func TestNamedCreateReplayOracle(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 10
	}
	for seed := int64(1); seed <= 4; seed++ {
		for every := 1; every <= 7; every++ {
			dir := t.TempDir()
			m := newPersistent(t, dir, ManagerConfig{SnapshotEvery: every})
			rng := rand.New(rand.NewSource(seed*100 + int64(every)))
			for step := 0; step < steps; step++ {
				randomCommand(t, rng, m)
				m2 := newPersistent(t, copyDir(t, dir), ManagerConfig{SnapshotEvery: every})
				if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
					t.Fatalf("seed %d every %d step %d: replay errors: %v", seed, every, step, errs)
				}
				if got, want := liveState(t, m2), liveState(t, m); got != want {
					t.Fatalf("seed %d every %d step %d: reopened state differs\n got %s\nwant %s", seed, every, step, got, want)
				}
				m2.Close()
			}
			if named, full := namedCreates(t, m); named == 0 || full > 2 {
				t.Fatalf("seed %d every %d: %d named and %d full-set creates; want named creates and at most one full set per region", seed, every, named, full)
			}
			m.Close()
		}
	}
}

// parentRecord rewrites a journaled command as a journal written before
// regions were named holds it: a create carries its whole set.
func parentRecord(t *testing.T, m *Manager, raw []byte) []byte {
	t.Helper()
	var ev walEvent
	if err := json.Unmarshal(raw, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Op != "create" {
		return raw
	}
	spec, err := m.resolveCreate(ev.Create)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Op     string      `json:"op"`
		ID     string      `json:"id"`
		Create *CreateSpec `json:"create"`
	}{ev.Op, ev.ID, &spec})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParentJournalContinues replays a journal in the layout written
// before regions were named — every create a full set — then continues
// it with live commands. The continuation must reach the state the
// original manager reaches with the same commands, journal named
// creates, and reopen to that state.
func TestParentJournalContinues(t *testing.T) {
	liveDir := t.TempDir()
	live := newPersistent(t, liveDir, ManagerConfig{SnapshotEvery: -1})
	defer live.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		randomCommand(t, rng, live)
	}

	// The parent-layout journal: the live journal's records, every
	// named create expanded to its full set.
	parentDir := t.TempDir()
	log, rec, err := journal.OpenLog(copyDir(t, liveDir), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plog, _, err := journal.OpenLog(parentDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	expanded := 0
	for _, r := range rec.Records {
		data := parentRecord(t, live, r.Data)
		if len(data) != len(r.Data) {
			expanded++
		}
		if _, err := plog.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	plog.Close()
	if expanded == 0 {
		t.Fatal("the live journal holds no named create to expand")
	}

	cont := newPersistent(t, parentDir, ManagerConfig{SnapshotEvery: 3})
	if errs := cont.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replaying the parent-layout journal: %v", errs)
	}
	if got, want := liveState(t, cont), liveState(t, live); got != want {
		t.Fatalf("parent-layout journal replays to a different state\n got %s\nwant %s", got, want)
	}
	named, _ := namedCreates(t, cont)
	for i := 0; i < 20; i++ {
		state := rng.Int63()
		randomCommand(t, rand.New(rand.NewSource(state)), live)
		randomCommand(t, rand.New(rand.NewSource(state)), cont)
	}
	if got, want := liveState(t, cont), liveState(t, live); got != want {
		t.Fatalf("continued parent-layout journal diverged\n got %s\nwant %s", got, want)
	}
	if after, _ := namedCreates(t, cont); after == named {
		t.Fatal("creates after the parent-layout journal did not name their region")
	}
	want := liveState(t, cont)
	if err := cont.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := newPersistent(t, parentDir, ManagerConfig{})
	defer reopened.Close()
	if errs := reopened.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("reopen: replay errors: %v", errs)
	}
	if got := liveState(t, reopened); got != want {
		t.Fatalf("reopened continuation differs\n got %s\nwant %s", got, want)
	}
}

// TestFailedCreateLeavesRegionUnjournaled is the regression for a create
// whose build fails after it registered its region: it journals
// nothing, so the next create of that region must journal the full set
// — the controller knowing the region says nothing about the log.
func TestFailedCreateLeavesRegionUnjournaled(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{})
	bad := regionSet(0)
	bad.Device.Software.Decoders = []media.Format{media.VideoH261} // no service produces it
	if _, err := m.Create(CreateSpec{Set: bad}); err == nil {
		t.Fatal("create of an undecodable device succeeded")
	}
	if !m.StormController().HasRegion(stormRegionName(&bad)) {
		t.Fatal("the failed create did not register its region; the regression needs it to")
	}
	if _, err := m.Create(CreateSpec{Set: regionSet(0), Floor: 0.3, Reserve: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if named, full := namedCreates(t, m); named != 0 || full != 1 {
		t.Fatalf("journal holds %d named and %d full-set creates; want the one create whole", named, full)
	}
	if _, err := m.Create(CreateSpec{Set: regionSet(0), Floor: 0.5}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if named, _ := namedCreates(t, m); named != 1 {
		t.Fatalf("second create of the region: %d named creates, want 1", named)
	}
	want := liveState(t, m)
	m.Close()
	m2 := newPersistent(t, dir, ManagerConfig{})
	defer m2.Close()
	if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	if got := liveState(t, m2); got != want {
		t.Fatalf("reopened state differs\n got %s\nwant %s", got, want)
	}
}

// FuzzReplayRecord replays one arbitrary journaled command onto a
// manager that replayed one full-set create. Nothing may panic, and a
// create naming a region no earlier create carried must be a replay
// error.
func FuzzReplayRecord(f *testing.F) {
	base, err := json.Marshal(walEvent{Op: "create", ID: "s1", Create: &createRecord{Set: ptr(regionSet(0)), Floor: 0.3, Reserve: true}})
	if err != nil {
		f.Fatal(err)
	}
	set := regionSet(0)
	f.Add(fmt.Sprintf(`{"op":"create","id":"s2","create":{"region":"r0000000000000000","user":%s,"content":%s,"device":%s}}`,
		mustJSON(f, set.User), mustJSON(f, set.Content), mustJSON(f, set.Device)))
	f.Add(fmt.Sprintf(`{"op":"create","id":"s2","create":{"region":%q,"user":%s,"content":%s,"device":%s,"floor":0.5}}`,
		stormRegionName(&set), mustJSON(f, set.User), mustJSON(f, set.Content), mustJSON(f, set.Device)))
	f.Add(fmt.Sprintf(`{"op":"create","id":"s2","create":{"region":%q}}`, stormRegionName(&set)))
	f.Add(`{"op":"fault","id":"s1","fault":{"atStep":1,"kind":"hostcrash","host":"p1"}}`)
	f.Add(`{"op":"delete","id":"s1"}`)

	f.Fuzz(func(t *testing.T, record string) {
		m, err := NewManager(ManagerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var first walEvent
		if err := json.Unmarshal(base, &first); err != nil {
			t.Fatal(err)
		}
		m.replayCommand(first, base, 1)
		var ev walEvent
		if json.Unmarshal([]byte(record), &ev) != nil {
			return
		}
		unknown := ev.Op == "create" && ev.Create != nil && ev.Create.Region != "" && m.regionSets[ev.Create.Region] == nil
		before := len(m.Recovery().ReplayErrors)
		m.replayCommand(ev, json.RawMessage(record), 2)
		if unknown && len(m.Recovery().ReplayErrors) == before {
			t.Fatalf("create naming unknown region %s replayed without an error", ev.Create.Region)
		}
		liveState(t, m)
	})
}

func ptr[T any](v T) *T { return &v }

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
