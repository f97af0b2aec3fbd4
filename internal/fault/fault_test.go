package fault

import (
	"reflect"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/overlay"
	"qoschain/internal/service"
)

func testNet() *overlay.Network {
	n := overlay.New()
	n.AddDuplexLink("s", "p1", 1000, 10, 0)
	n.AddDuplexLink("s", "p2", 800, 20, 0)
	n.AddDuplexLink("p1", "r", 1000, 10, 0)
	n.AddDuplexLink("p2", "r", 800, 20, 0)
	return n
}

func testSvcs() []*service.Service {
	t1 := service.FormatConverter("t1", media.Opaque(1), media.Opaque(2))
	t1.Host = "p1"
	t2 := service.FormatConverter("t2", media.Opaque(1), media.Opaque(2))
	t2.Host = "p2"
	return []*service.Service{t1, t2}
}

func TestServiceSetAliveTracksDownMarks(t *testing.T) {
	set := NewServiceSet(testSvcs())
	if len(set.Alive()) != 2 {
		t.Fatalf("alive = %d, want 2", len(set.Alive()))
	}
	set.SetHostDown("p1", true)
	alive := set.Alive()
	if len(alive) != 1 || alive[0].ID != "t2" {
		t.Fatalf("alive after host down = %v", alive)
	}
	set.SetServiceDown("t2", true)
	if len(set.Alive()) != 0 {
		t.Fatal("expected empty pool")
	}
	if got := set.Down(); len(got) != 2 || got[0] != "t1" || got[1] != "t2" {
		t.Fatalf("down = %v", got)
	}
	set.SetHostDown("p1", false)
	set.SetServiceDown("t2", false)
	if len(set.Alive()) != 2 {
		t.Fatal("recovery must restore the pool")
	}
}

func TestInjectorHostCrashAndAutoRecover(t *testing.T) {
	net := testNet()
	set := NewServiceSet(testSvcs())
	inj, err := NewInjector(net, set, []Fault{
		{AtStep: 2, Kind: HostCrash, Host: "p1", RecoverAfter: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired := inj.Step(); len(fired) != 0 {
		t.Fatalf("step 1 fired %v", fired)
	}
	fired := inj.Step() // step 2: crash
	if len(fired) != 1 || fired[0].Kind != HostCrash {
		t.Fatalf("step 2 fired %v", fired)
	}
	if !net.HostDown("p1") || len(set.Alive()) != 1 {
		t.Fatal("crash must take down host and its services")
	}
	inj.Step() // 3
	inj.Step() // 4
	if !net.HostDown("p1") {
		t.Fatal("recovered too early")
	}
	fired = inj.Step() // step 5 = 2+3: recover
	if len(fired) != 1 || fired[0].Kind != HostRecover {
		t.Fatalf("step 5 fired %v", fired)
	}
	if net.HostDown("p1") || len(set.Alive()) != 2 {
		t.Fatal("recovery must restore host and services")
	}
	if !inj.Done() {
		t.Fatal("injector must report done")
	}
}

func TestInjectorBandwidthCollapseRestoresOriginal(t *testing.T) {
	net := testNet()
	inj, err := NewInjector(net, nil, []Fault{
		{AtStep: 1, Kind: BandwidthCollapse, From: "s", To: "p1", Factor: 0.1, RecoverAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Step()
	if bw, _, _, _ := net.Link("s", "p1"); bw != 100 {
		t.Fatalf("collapsed bw = %v, want 100", bw)
	}
	inj.Step()
	inj.Step()
	if bw, _, _, _ := net.Link("s", "p1"); bw != 1000 {
		t.Fatalf("restored bw = %v, want 1000", bw)
	}
}

func TestInjectorLossAndDelaySpikesRestore(t *testing.T) {
	net := testNet()
	inj, err := NewInjector(net, nil, []Fault{
		{AtStep: 1, Kind: LossSpike, From: "s", To: "p1", LossRate: 0.5, RecoverAfter: 1},
		{AtStep: 1, Kind: DelaySpike, From: "s", To: "p1", DelayMs: 400, RecoverAfter: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Step()
	if _, delay, loss, _ := net.Link("s", "p1"); loss != 0.5 || delay != 400 {
		t.Fatalf("spiked link = delay %v loss %v", delay, loss)
	}
	inj.Step()
	if _, delay, loss, _ := net.Link("s", "p1"); loss != 0 || delay != 10 {
		t.Fatalf("restored link = delay %v loss %v", delay, loss)
	}
}

func TestInjectorRedundantFaultsAreNoOps(t *testing.T) {
	net := testNet()
	set := NewServiceSet(testSvcs())
	inj, err := NewInjector(net, set, []Fault{
		{AtStep: 1, Kind: HostCrash, Host: "p1"},
		{AtStep: 2, Kind: HostCrash, Host: "p1"},        // already down
		{AtStep: 2, Kind: LinkDown, From: "x", To: "y"}, // unknown link
		{AtStep: 3, Kind: HostRecover, Host: "p2"},      // not down
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired := inj.Step(); len(fired) != 1 || fired[0].Kind != HostCrash || fired[0].Host != "p1" {
		t.Fatalf("step 1 fired %v, want the one p1 crash", fired)
	}
	if fired := inj.Step(); len(fired) != 0 {
		t.Fatalf("redundant faults fired %v", fired)
	}
	if fired := inj.Step(); len(fired) != 0 {
		t.Fatalf("bogus recover fired %v", fired)
	}
}

func TestInjectorRejectsInvalidSchedule(t *testing.T) {
	for _, f := range []Fault{
		{AtStep: 0, Kind: HostCrash, Host: "p1"},
		{AtStep: 1, Kind: HostCrash},
		{AtStep: 1, Kind: LinkDown, From: "a"},
		{AtStep: 1, Kind: BandwidthCollapse, From: "a", To: "b"},
		{AtStep: 1, Kind: LossSpike, From: "a", To: "b", LossRate: 1.5},
		{AtStep: 1, Kind: ServiceDown},
		{AtStep: 1, Kind: Kind("bogus"), Host: "p1"},
		{AtStep: 1, Kind: HostCrash, Host: "p1", RecoverAfter: -1},
	} {
		if _, err := NewInjector(testNet(), nil, []Fault{f}); err == nil {
			t.Errorf("schedule %+v must be rejected", f)
		}
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	spec := ChaosSpec{
		Seed: 42, Steps: 50,
		HostCrashRate: 0.2, LinkFlapRate: 0.2, BandwidthCollapseRate: 0.2,
		ServiceChurnRate: 0.2, LossSpikeRate: 0.2,
		Protected: []string{"s", "r"},
	}
	a := RandomSchedule(spec, testNet(), testSvcs())
	b := RandomSchedule(spec, testNet(), testSvcs())
	if len(a) == 0 {
		t.Fatal("expected a non-empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce identical schedules")
	}
	spec.Seed = 43
	c := RandomSchedule(spec, testNet(), testSvcs())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should diverge")
	}
	for _, f := range a {
		if f.Host == "s" || f.Host == "r" {
			t.Fatalf("protected host crashed: %v", f)
		}
		if f.RecoverAfter <= 0 {
			t.Fatalf("unbounded outage: %v", f)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("generated fault invalid: %v", err)
		}
	}
}

func TestInjectorScheduleRunsToCompletion(t *testing.T) {
	net := testNet()
	set := NewServiceSet(testSvcs())
	spec := ChaosSpec{
		Seed: 7, Steps: 40,
		HostCrashRate: 0.3, LinkFlapRate: 0.3, ServiceChurnRate: 0.3,
		Protected: []string{"s", "r"},
	}
	inj, err := NewInjector(net, set, RandomSchedule(spec, net, set.All()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Steps+20 && !inj.Done(); i++ {
		inj.Step()
	}
	if !inj.Done() {
		t.Fatal("bounded outages must all recover")
	}
	if len(net.DownHosts()) != 0 || len(set.Down()) != 0 {
		t.Fatalf("residual failures: hosts=%v svcs=%v", net.DownHosts(), set.Down())
	}
}
