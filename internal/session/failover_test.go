package session

// failover_test.go checks graceful degradation on the manager: a class
// whose chain breaks re-plans onto a live alternative, adopts a
// below-floor chain marked degraded when that is all there is, keeps
// its last chain when nothing composes at all, and climbs back once
// the network recovers.

import (
	"strings"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/profile"
)

// degradeSet is managerSet with p2's downlink halved, so the conv2
// detour delivers half the frame rate of the conv1 chain.
func degradeSet() profile.Set {
	set := managerSet()
	for i, l := range set.Network.Links {
		if l.From == "p2" {
			set.Network.Links[i].BandwidthKbps /= 2
		}
	}
	return set
}

// newDegradeSession creates one reserving session on degradeSet at the
// given QoS floor and checks it starts on the conv1 chain.
func newDegradeSession(t *testing.T, floor float64) (*Manager, *Managed) {
	t.Helper()
	m, _ := newStormManager(t)
	ms, err := m.Create(CreateSpec{Set: degradeSet(), Floor: floor, Reserve: true})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if got := strings.Join(ms.State().Path, ","); got != "sender,conv1,receiver" {
		t.Fatalf("initial path = %s", got)
	}
	return m, ms
}

// applyHost injects a host crash or recovery through the session.
func applyHost(t *testing.T, ms *Managed, kind fault.Kind, host string) State {
	t.Helper()
	if err := ms.ApplyFault(fault.Fault{AtStep: 1, Kind: kind, Host: host}); err != nil {
		t.Fatalf("%s %s: %v", kind, host, err)
	}
	return ms.State()
}

func TestFailoverRecomposesAfterHostCrash(t *testing.T) {
	m, ms := newDegradeSession(t, 0.2)
	before := ms.State().Satisfaction
	st := applyHost(t, ms, fault.HostCrash, "p1")
	if got := strings.Join(st.Path, ","); got != "sender,conv2,receiver" {
		t.Fatalf("path after crash = %s", got)
	}
	if st.Failover.Degraded || st.Recompositions != 1 {
		t.Errorf("failover = %+v, recompositions = %d; want one healthy swap", st.Failover, st.Recompositions)
	}
	if st.Satisfaction >= before {
		t.Errorf("detour satisfaction %v should sit below the conv1 chain's %v", st.Satisfaction, before)
	}
	for link := range st.Reserved {
		if !strings.Contains(link, "p2") {
			t.Errorf("hold %s left on the dead chain: %v", link, st.Reserved)
		}
	}
	if leak := stormLeak(m); leak != 0 {
		t.Errorf("leaked %v kbps", leak)
	}
}

func TestFailoverUnrecoverableEndsDegradedNotHung(t *testing.T) {
	m, ms := newDegradeSession(t, 0.2)
	applyHost(t, ms, fault.HostCrash, "p1")
	st := applyHost(t, ms, fault.HostCrash, "p2")
	if !st.Failover.Degraded {
		t.Fatalf("total partition must leave the session degraded: %+v", st.Failover)
	}
	// Kept the last chain rather than dropping to nothing.
	if got := strings.Join(st.Path, ","); got != "sender,conv2,receiver" {
		t.Errorf("chain after partition = %s", got)
	}
	// A reevaluate re-plans the class; nothing composes, so it stays put.
	if _, evalErr, logErr := ms.Reevaluate(); evalErr != nil || logErr != nil {
		t.Fatalf("reevaluate under partition: eval=%v log=%v", evalErr, logErr)
	}
	after := ms.State()
	if after.Recompositions != st.Recompositions || !after.Failover.Degraded ||
		strings.Join(after.Path, ",") != "sender,conv2,receiver" {
		t.Errorf("after reevaluate: recompositions=%d failover=%+v path=%v; want no swap, still degraded",
			after.Recompositions, after.Failover, after.Path)
	}
	if leak := stormLeak(m); leak != 0 {
		t.Errorf("leaked %v kbps", leak)
	}
}

func TestFailoverAdoptsBelowFloorChainGracefully(t *testing.T) {
	// The floor sits between the two chains: after p1 dies only the
	// below-floor conv2 detour exists, and graceful degradation adopts
	// it rather than keep a dead chain.
	_, ms := newDegradeSession(t, 0.5)
	st := applyHost(t, ms, fault.HostCrash, "p1")
	if got := strings.Join(st.Path, ","); got != "sender,conv2,receiver" {
		t.Fatalf("path after crash = %s", got)
	}
	if st.Satisfaction >= 0.5 {
		t.Fatalf("setup: detour satisfaction %v should be below the 0.5 floor", st.Satisfaction)
	}
	if !st.Failover.Degraded {
		t.Error("below-floor adoption must leave the session degraded")
	}
}

func TestDegradedSessionRecoversWhenHostReturns(t *testing.T) {
	m, ms := newDegradeSession(t, 0.5)
	if st := applyHost(t, ms, fault.HostCrash, "p1"); !st.Failover.Degraded {
		t.Fatal("setup: expected a degraded session")
	}
	// The host comes back; its storm re-plans the degraded class above
	// the floor.
	st := applyHost(t, ms, fault.HostRecover, "p1")
	if got := strings.Join(st.Path, ","); got != "sender,conv1,receiver" {
		t.Errorf("path after recovery = %s", got)
	}
	if st.Failover.Degraded || st.Recompositions != 2 {
		t.Errorf("failover = %+v, recompositions = %d; want healthy after 2 swaps", st.Failover, st.Recompositions)
	}
	if leak := stormLeak(m); leak != 0 {
		t.Errorf("leaked %v kbps", leak)
	}
}

// TestDisabledFailoverKeepsStrictErrors checks that a plain Session has
// no degraded state: on a total partition Reevaluate errors.
func TestDisabledFailoverKeepsStrictErrors(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.FailHost("pa"); err != nil {
		t.Fatal(err)
	}
	if err := net.FailHost("pb"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reevaluate(); err == nil {
		t.Error("plain sessions must still error on total partition")
	}
}
