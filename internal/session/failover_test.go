package session

import (
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/fault"
	"qoschain/internal/metrics"
)

// failoverBed extends the shared testbed with a live service pool and
// failover enabled.
func failoverBed(t *testing.T, floor float64) (Config, *fault.ServiceSet, *metrics.Counters) {
	t.Helper()
	cfg, _ := testbed(t)
	pool := fault.NewServiceSet(cfg.Services)
	m := metrics.NewCounters()
	cfg.Pool = pool
	cfg.Failover = FailoverConfig{
		Enabled:           true,
		SatisfactionFloor: floor,
		Metrics:           m,
	}
	return cfg, pool, m
}

// crash takes a host out of both the overlay and the live pool, the way
// the fault injector does.
func crash(t *testing.T, cfg Config, pool *fault.ServiceSet, host string) {
	t.Helper()
	if err := cfg.Net.FailHost(host); err != nil {
		t.Fatal(err)
	}
	pool.SetHostDown(host, true)
}

func TestFailoverRecomposesAfterHostCrash(t *testing.T) {
	cfg, pool, m := failoverBed(t, 0.5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if core.PathString(s.Result().Path) != "sender,conv-a,receiver" {
		t.Fatalf("initial path = %s", core.PathString(s.Result().Path))
	}

	crash(t, cfg, pool, "pa")
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Fatalf("after crash: changed=%v path=%s", changed, core.PathString(s.Result().Path))
	}
	// conv-b delivers 20/30 fps = 0.667, above the 0.5 floor: a clean
	// recovery.
	if s.Degraded() {
		t.Error("recovered session must not be degraded")
	}
	if m.Get(metrics.CounterFailovers) != 1 || m.Get(metrics.CounterRecovered) != 1 {
		t.Errorf("counters = %v", m.Snapshot())
	}
	if rs := m.Sample(metrics.SampleRecoverySteps); len(rs) != 1 {
		t.Errorf("recovery steps sample = %v", rs)
	}
	st := s.FailoverStatus()
	if !st.Enabled || st.Degraded || st.Failovers != 1 {
		t.Errorf("status = %+v", st)
	}
}

func TestFailoverUnrecoverableEndsDegradedNotHung(t *testing.T) {
	cfg, pool, m := failoverBed(t, 0.5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := core.PathString(s.Result().Path)

	crash(t, cfg, pool, "pa")
	crash(t, cfg, pool, "pb")
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatalf("total partition must degrade, not error: %v", err)
	}
	if changed {
		t.Error("nothing to switch to")
	}
	if !s.Degraded() {
		t.Fatal("session must be degraded")
	}
	// Kept the last chain rather than dropping to nothing.
	if core.PathString(s.Result().Path) != before {
		t.Errorf("chain after partition = %s", core.PathString(s.Result().Path))
	}
	if m.Get(metrics.CounterDegraded) != 1 || m.Get(metrics.CounterRecovered) != 0 {
		t.Errorf("counters = %v", m.Snapshot())
	}
	if st := s.FailoverStatus(); st.LastError == "" {
		t.Error("degraded status must carry the last error")
	}
}

func TestFailoverAdoptsBelowFloorChainGracefully(t *testing.T) {
	// Floor 0.9: after pa dies only conv-b (satisfaction 0.667) exists.
	// Graceful degradation must adopt it rather than keep a dead chain.
	cfg, pool, _ := failoverBed(t, 0.9)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, cfg, pool, "pa")
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Fatalf("changed=%v path=%s", changed, core.PathString(s.Result().Path))
	}
	if !s.Degraded() {
		t.Error("below-floor adoption must leave the session degraded")
	}
	last := s.History()[len(s.History())-1]
	if last.Reason != "failover-degraded" {
		t.Errorf("reason = %s", last.Reason)
	}
}

func TestDegradedSessionRecoversWhenHostReturns(t *testing.T) {
	cfg, pool, m := failoverBed(t, 0.9)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, cfg, pool, "pa")
	if _, err := s.Reevaluate(); err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("setup: expected degraded session")
	}

	// Host comes back; the next reevaluation recovers above the floor.
	if err := cfg.Net.RecoverHost("pa"); err != nil {
		t.Fatal(err)
	}
	pool.SetHostDown("pa", false)
	s.Tick()
	s.Tick()
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || s.Degraded() {
		t.Fatalf("changed=%v degraded=%v", changed, s.Degraded())
	}
	if core.PathString(s.Result().Path) != "sender,conv-a,receiver" {
		t.Errorf("path = %s", core.PathString(s.Result().Path))
	}
	last := s.History()[len(s.History())-1]
	if last.Reason != "recovered" {
		t.Errorf("reason = %s", last.Reason)
	}
	// Two ticks passed while degraded.
	if rs := m.Sample(metrics.SampleRecoverySteps); len(rs) != 1 || rs[0] != 2 {
		t.Errorf("recovery steps = %v", rs)
	}
}

func TestOnStageFailureQuarantinesAndFailsOver(t *testing.T) {
	cfg, _, m := failoverBed(t, 0.5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The running conv-a stage dies mid-stream (pipeline StageFailure).
	changed, err := s.OnStageFailure("conv-a")
	if err != nil {
		t.Fatal(err)
	}
	if !changed || core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Fatalf("changed=%v path=%s", changed, core.PathString(s.Result().Path))
	}
	q := s.Quarantined()
	if len(q) != 2 || q[0] != "host:pa" || q[1] != "svc:conv-a" {
		t.Errorf("quarantine = %v", q)
	}
	if m.Get(metrics.CounterQuarantined) != 2 {
		t.Errorf("quarantined counter = %d", m.Get(metrics.CounterQuarantined))
	}
}

func TestQuarantineExpiryReadmitsHost(t *testing.T) {
	cfg, _, _ := failoverBed(t, 0.5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OnStageFailure("conv-a"); err != nil {
		t.Fatal(err)
	}
	// While quarantined, reevaluation must not return to conv-a even
	// though the host is healthy in the overlay.
	if changed, _ := s.Reevaluate(); changed {
		t.Fatal("quarantined host must stay excluded")
	}
	// The quarantine holds one tick short of its sentence...
	for i := 0; i < quarantineSteps-1; i++ {
		s.Tick()
	}
	if changed, _ := s.Reevaluate(); changed || len(s.Quarantined()) != 2 {
		t.Fatalf("quarantine ended early: changed=%v quarantine=%v", changed, s.Quarantined())
	}
	// ...and after quarantineSteps ticks the host is re-admitted and
	// the better chain is picked back up.
	s.Tick()
	if len(s.Quarantined()) != 0 {
		t.Fatalf("quarantine after expiry = %v", s.Quarantined())
	}
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || core.PathString(s.Result().Path) != "sender,conv-a,receiver" {
		t.Fatalf("changed=%v path=%s", changed, core.PathString(s.Result().Path))
	}
}

// TestFailoverUnderSeededSchedule drives a session through a scripted
// injector schedule — the acceptance scenario: the active chain's host
// is killed mid-run, the session re-composes, and after the bounded
// outage it returns to the better chain.
func TestFailoverUnderSeededSchedule(t *testing.T) {
	cfg, pool, m := failoverBed(t, 0.5)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(cfg.Net, pool, []fault.Fault{
		{AtStep: 3, Kind: fault.HostCrash, Host: "pa", RecoverAfter: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	paths := make([]string, 0, 12)
	for step := 1; step <= 12; step++ {
		inj.Step()
		s.Tick()
		if _, err := s.Reevaluate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		paths = append(paths, core.PathString(s.Result().Path))
	}
	// Steps 1-2: healthy on conv-a. Steps 3-6: crashed, on conv-b.
	// Step 7+: recovered, back on conv-a.
	if paths[1] != "sender,conv-a,receiver" {
		t.Errorf("pre-crash path = %s", paths[1])
	}
	if paths[3] != "sender,conv-b,receiver" {
		t.Errorf("mid-outage path = %s", paths[3])
	}
	if paths[11] != "sender,conv-a,receiver" {
		t.Errorf("post-recovery path = %s", paths[11])
	}
	if s.Degraded() {
		t.Error("session must end healthy")
	}
	if m.Get(metrics.CounterFailovers) != 1 || m.Get(metrics.CounterRecovered) != 1 {
		t.Errorf("counters = %v", m.Snapshot())
	}
}

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
	if s.Degraded() {
		t.Error("plain sessions never degrade")
	}
}
