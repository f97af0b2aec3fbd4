package session

// fault_test.go covers the fault command: the region mutation each kind
// applies, how it journals and replays, and what a rejected fault must
// leave alone.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/overlay"
)

// overlayState renders a region overlay — every link's capacity,
// reservation and up/down state, usable or not, the delay and loss of
// the usable ones, and the down hosts — so a test can tell whether a
// command touched it.
func overlayState(net *overlay.Network) string {
	var b strings.Builder
	down := net.DownHosts()
	sort.Strings(down)
	fmt.Fprintf(&b, "down hosts %v\n", down)
	seen := make(map[overlay.LinkRef]bool)
	for _, node := range net.Nodes() {
		for _, l := range net.LinksOf(node) {
			if seen[l] {
				continue
			}
			seen[l] = true
			capacity, reserved, _ := net.Capacity(l.From, l.To)
			fmt.Fprintf(&b, "%s->%s capacity=%v reserved=%v down=%v\n",
				l.From, l.To, capacity, reserved, net.LinkDown(l.From, l.To))
		}
	}
	for _, l := range net.Snapshot().Links {
		fmt.Fprintf(&b, "usable %s->%s delay=%v loss=%v\n", l.From, l.To, l.DelayMs, l.LossRate)
	}
	return b.String()
}

// reopenMatches closes a durable manager, reopens its state directory,
// and requires the recovered sessions, controller and region overlay to
// equal the live ones. It returns the reopened manager.
func reopenMatches(t *testing.T, dir string, m *Manager, ms *Managed) (*Manager, *Managed) {
	t.Helper()
	want := fingerprints(t, m)
	wantCtrl, err := m.StormController().Fingerprint()
	if err != nil {
		t.Fatalf("controller fingerprint: %v", err)
	}
	wantNet := overlayState(ms.Net())
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m2, err := NewManager(ManagerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if errs := m2.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	got := fingerprints(t, m2)
	for id, fp := range want {
		if got[id] != fp {
			t.Errorf("session %s diverged on reopen:\n got %s\nwant %s", id, got[id], fp)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reopened %d sessions, want %d", len(got), len(want))
	}
	if gotCtrl, err := m2.StormController().Fingerprint(); err != nil || gotCtrl != wantCtrl {
		t.Errorf("controller diverged on reopen (err %v):\n got %s\nwant %s", err, gotCtrl, wantCtrl)
	}
	ms2, ok := m2.Get(ms.ID())
	if !ok {
		t.Fatalf("session %s missing after reopen", ms.ID())
	}
	if gotNet := overlayState(ms2.Net()); gotNet != wantNet {
		t.Errorf("region overlay diverged on reopen:\n got %s\nwant %s", gotNet, wantNet)
	}
	return m2, ms2
}

// TestBandwidthFaultOnDownLink collapses a link while its host is down:
// the collapse must land, the link must come back collapsed when the
// host recovers, and a restore-bandwidth fault must then set its exact
// capacity back — each state replaying from the journal.
func TestBandwidthFaultOnDownLink(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(ManagerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.Create(CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(f fault.Fault) {
		t.Helper()
		f.AtStep = 1
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := ms.ApplyFault(f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	apply(fault.Fault{Kind: fault.HostCrash, Host: "p1"})
	if ms.Net().Usable("sender", "p1") {
		t.Fatal("setup: sender->p1 must be down with p1")
	}
	capacity, reserved, _ := ms.Net().Capacity("sender", "p1")
	apply(fault.Fault{Kind: fault.BandwidthCollapse, From: "sender", To: "p1", Factor: 0.25})
	apply(fault.Fault{Kind: fault.HostRecover, Host: "p1"})
	want := (capacity - reserved) * 0.25
	if got, _, _ := ms.Net().Capacity("sender", "p1"); got != want {
		t.Fatalf("sender->p1 capacity after recovery = %v, want collapsed to %v", got, want)
	}
	m, ms = reopenMatches(t, dir, m, ms)

	apply(fault.Fault{Kind: fault.BandwidthRestore, From: "sender", To: "p1", Factor: capacity})
	if got, _, _ := ms.Net().Capacity("sender", "p1"); got != capacity {
		t.Fatalf("sender->p1 capacity after restore = %v, want %v", got, capacity)
	}
	m, _ = reopenMatches(t, dir, m, ms)
	m.Close()
}

// FuzzApplyFault applies two arbitrary fault bodies, as
// POST /v1/sessions/{id}/fault would, to a durable manager holding one
// reserving session. Nothing may panic, a fault the manager rejects
// must leave the controller and the region overlay untouched, and a
// reopen must rebuild the live state.
func FuzzApplyFault(f *testing.F) {
	seeds := [][2]string{
		{`{"atStep":1,"kind":"hostcrash","host":"p1"}`, `{"atStep":1,"kind":"bandwidth","from":"sender","to":"p1","factor":0.25}`},
		{`{"atStep":1,"kind":"bandwidth","from":"p1","to":"d","factor":0.1}`, `{"atStep":1,"kind":"restore-bandwidth","from":"p1","to":"d","factor":1800}`},
		{`{"atStep":1,"kind":"linkdown","from":"p2","to":"d"}`, `{"atStep":1,"kind":"linkup","from":"p2","to":"d"}`},
		{`{"atStep":1,"kind":"servicedown","service":"conv1"}`, `{"atStep":1,"kind":"loss","from":"sender","to":"p2","lossRate":0.5}`},
		{`{"atStep":1,"kind":"delay","from":"sender","to":"p9","delayMs":-1}`, `{"atStep":1,"kind":"hostrecover","host":"p1"}`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, body1, body2 string) {
		dir := t.TempDir()
		m, err := NewManager(ManagerConfig{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := m.Create(CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range []string{body1, body2} {
			var flt fault.Fault
			if json.Unmarshal([]byte(body), &flt) != nil || flt.Validate() != nil {
				continue
			}
			beforeCtrl, err := m.StormController().Fingerprint()
			if err != nil {
				t.Fatalf("controller fingerprint: %v", err)
			}
			beforeNet := overlayState(ms.Net())
			if err := ms.ApplyFault(flt); err != nil {
				if after, _ := m.StormController().Fingerprint(); after != beforeCtrl {
					t.Fatalf("rejected %s changed the controller: %v\nbefore: %s\nafter:  %s", flt, err, beforeCtrl, after)
				}
				if after := overlayState(ms.Net()); after != beforeNet {
					t.Fatalf("rejected %s changed the region overlay: %v\nbefore: %s\nafter:  %s", flt, err, beforeNet, after)
				}
			}
		}
		m, _ = reopenMatches(t, dir, m, ms)
		m.Close()
	})
}
