package session

// Tests for re-evaluation reason attribution: the reason token rides
// the journaled command, lands in the failover.reevaluate_* counters,
// and replays to exactly the live counter state.

import (
	"testing"

	"qoschain/internal/metrics"
)

func TestReevaluateReasonCounters(t *testing.T) {
	counters := metrics.NewCounters()
	m, err := NewManager(ManagerConfig{Counters: counters})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ms, err := m.Create(CreateSpec{Set: managerSet()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	if _, _, logErr := ms.Reevaluate(); logErr != nil {
		t.Fatalf("Reevaluate: %v", logErr)
	}
	if _, _, logErr := ms.ReevaluateReason(ReevalFault); logErr != nil {
		t.Fatalf("ReevaluateReason(fault): %v", logErr)
	}
	for i := 0; i < 2; i++ {
		if _, _, logErr := ms.ReevaluateReason(ReevalStorm); logErr != nil {
			t.Fatalf("ReevaluateReason(storm): %v", logErr)
		}
	}

	for name, want := range map[string]int64{
		metrics.CounterReevalManual: 1,
		metrics.CounterReevalFault:  1,
		metrics.CounterReevalStorm:  2,
	} {
		if got := counters.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestReevaluateReasonReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	live := metrics.NewCounters()
	m := newPersistent(t, dir, ManagerConfig{Counters: live})
	ms, err := m.Create(CreateSpec{Set: managerSet()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, logErr := ms.ReevaluateReason(ReevalStorm); logErr != nil {
		t.Fatalf("ReevaluateReason: %v", logErr)
	}
	if _, _, logErr := ms.ReevaluateReason(ReevalFault); logErr != nil {
		t.Fatalf("ReevaluateReason: %v", logErr)
	}
	wantState := fingerprints(t, m)
	m.Close()

	replayed := metrics.NewCounters()
	m2 := newPersistent(t, dir, ManagerConfig{Counters: replayed})
	defer m2.Close()
	gotState := fingerprints(t, m2)
	for id, want := range wantState {
		if gotState[id] != want {
			t.Fatalf("session %s replayed differently\nlive:     %s\nreplayed: %s", id, want, gotState[id])
		}
	}
	for _, name := range []string{metrics.CounterReevalStorm, metrics.CounterReevalFault, metrics.CounterReevalManual} {
		if live.Get(name) != replayed.Get(name) {
			t.Errorf("%s: live %d, replayed %d — reason attribution must replay identically",
				name, live.Get(name), replayed.Get(name))
		}
	}
}
