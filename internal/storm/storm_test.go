package storm_test

// Tests for the storm controller's live behavior: class identity,
// reservation accounting, plan-once-per-class storms, priority
// ordering, and graceful degradation. Durability (storm record replay,
// lost records and legacy records) is covered in journal_test.go.

import (
	"math"
	"strings"
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/storm"
)

// buildRegion returns a Table 1 deployment with every link resized to
// one uniform capacity — the same shape the EXT-O harness uses, small.
func buildRegion(name string, capacity float64) storm.Region {
	net := paperexample.Table1Network()
	for _, node := range net.Nodes() {
		for _, ref := range net.LinksOf(node) {
			_ = net.SetBandwidth(ref.From, ref.To, capacity)
		}
	}
	return storm.Region{
		Name:         name,
		Net:          net,
		Services:     paperexample.Table1Services(true),
		SenderHost:   "sender",
		ReceiverHost: "receiver",
	}
}

// classSpec builds a class over the Table 1 endpoints with the given
// ideal frame rate and QoS floor.
func classSpec(region string, ideal, floor float64) storm.ClassSpec {
	return storm.ClassSpec{
		Region:  region,
		Content: *paperexample.Table1Content(),
		Device:  *paperexample.Table1Device(),
		User: profile.User{
			Name: region + "-user",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, ideal),
			},
		},
		Floor: floor,
	}
}

// collapse multiplies every sender access link's capacity by factor and
// reports the changed links to the controller — a correlated backbone
// event in miniature.
func collapse(t testing.TB, c *storm.Controller, reg storm.Region, factor float64) []overlay.LinkRef {
	t.Helper()
	links := reg.Net.LinksOf(reg.SenderHost)
	for _, l := range links {
		capKbps, _, ok := reg.Net.Capacity(l.From, l.To)
		if !ok {
			t.Fatalf("no capacity for %s->%s", l.From, l.To)
		}
		if err := reg.Net.SetBandwidth(l.From, l.To, capKbps*factor); err != nil {
			t.Fatalf("SetBandwidth: %v", err)
		}
	}
	if err := c.NotePending(reg.Name, links); err != nil {
		t.Fatalf("NotePending: %v", err)
	}
	return links
}

// leak returns the absolute difference between the controller's member
// holds and the overlay's reserved total — must be zero at all times.
func leak(c *storm.Controller, reg storm.Region) float64 {
	return math.Abs(c.HeldKbps(reg.Name) - reg.Net.TotalReservedKbps())
}

func TestClassSpecKey(t *testing.T) {
	a := classSpec("r1", 30, 0.7)
	b := classSpec("r1", 30, 0.7)
	if a.Key() != b.Key() {
		t.Fatalf("equal specs produced different keys: %s vs %s", a.Key(), b.Key())
	}
	if !strings.HasPrefix(a.Key(), "r1-") {
		t.Fatalf("key %q does not carry the region prefix", a.Key())
	}
	c := classSpec("r1", 30, 0.75)
	if a.Key() == c.Key() {
		t.Fatal("different floors hashed to the same class key")
	}
	d := classSpec("r2", 30, 0.7)
	if a.Key() == d.Key() {
		t.Fatal("different regions hashed to the same class key")
	}
}

func TestOpenRejectsBadRegions(t *testing.T) {
	if _, err := storm.Open(storm.Config{}, []storm.Region{{Name: ""}}); err == nil {
		t.Fatal("Open accepted a nameless region")
	}
	reg := buildRegion("r1", 100000)
	if _, err := storm.Open(storm.Config{}, []storm.Region{reg, reg}); err == nil {
		t.Fatal("Open accepted duplicate regions")
	}
}

func TestAttachAccounting(t *testing.T) {
	reg := buildRegion("r1", 100000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	cls, err := c.AddClass(classSpec("r1", 30, 0.7))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if cls.Chain() == "" {
		t.Fatal("class admitted without a chain")
	}
	if _, err := c.Attach(cls.Key(), 5); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if got := c.Sessions(); got != 5 {
		t.Fatalf("Sessions() = %d, want 5", got)
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("leak after attach: %.3f kbps", d)
	}
	if _, err := c.Attach("r1-no-such-class", 1); err == nil {
		t.Fatal("Attach accepted an unknown class key")
	}
	// An identical spec is the same equivalence class; a second AddClass
	// is a caller bug, not a second population.
	if _, err := c.AddClass(classSpec("r1", 30, 0.7)); err == nil {
		t.Fatal("AddClass accepted a duplicate class spec")
	}
	if c.Classes() != 1 {
		t.Fatalf("Classes() = %d after duplicate AddClass, want 1", c.Classes())
	}
}

func TestStormPlansOncePerClass(t *testing.T) {
	// 3 classes × 20 members; links hold 80 Mbps, so every class fits
	// pre-storm, and the 0.5 collapse forces redistribution.
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{Verify: true}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	ideals := []float64{30, 26, 22}
	for i, ideal := range ideals {
		cls, err := c.AddClass(classSpec("r1", ideal, 0.6))
		if err != nil {
			t.Fatalf("AddClass %d: %v", i, err)
		}
		if _, err := c.Attach(cls.Key(), 20); err != nil {
			t.Fatalf("Attach %d: %v", i, err)
		}
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("pre-storm leak: %.3f kbps", d)
	}

	// Nothing pending → no storm.
	if rep, _, err := c.Storm(); err != nil || rep != nil {
		t.Fatalf("idle Storm() = (%v, %v), want (nil, nil)", rep, err)
	}

	collapse(t, c, reg, 0.5)
	rep, _, err := c.Storm()
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	if rep == nil {
		t.Fatal("Storm absorbed nothing despite pending links")
	}
	if rep.AffectedSessions != 60 {
		t.Fatalf("AffectedSessions = %d, want 60", rep.AffectedSessions)
	}
	if rep.SelectCalls != rep.AffectedClasses {
		t.Fatalf("SelectCalls = %d for %d classes: must plan exactly once per class",
			rep.SelectCalls, rep.AffectedClasses)
	}
	if rep.SelectPerSession > 0.05 {
		t.Fatalf("SelectPerSession = %.4f, want ≤ 0.05", rep.SelectPerSession)
	}
	if rep.NaiveChecks != 60 || rep.Mismatches != 0 {
		t.Fatalf("equivalence check: %d checks, %d mismatches; want 60 checks, 0 mismatches",
			rep.NaiveChecks, rep.Mismatches)
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("post-storm leak: %.3f kbps", d)
	}
	// Pending set was consumed; an immediate second storm is a no-op.
	if rep2, _, err := c.Storm(); err != nil || rep2 != nil {
		t.Fatalf("second Storm() = (%v, %v), want (nil, nil)", rep2, err)
	}
}

func TestStormPriorityOrder(t *testing.T) {
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Same ideal, different floors: the high-floor class is pushed
	// further below its floor by the same event and must re-plan first.
	for _, floor := range []float64{0.55, 0.85, 0.70} {
		cls, err := c.AddClass(classSpec("r1", 30, floor))
		if err != nil {
			t.Fatalf("AddClass floor %.2f: %v", floor, err)
		}
		if _, err := c.Attach(cls.Key(), 4); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	collapse(t, c, reg, 0.4)
	rep, _, err := c.Storm()
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	if len(rep.Classes) < 2 {
		t.Fatalf("expected several affected classes, got %d", len(rep.Classes))
	}
	for i := 1; i < len(rep.Classes); i++ {
		if rep.Classes[i-1].Gap < rep.Classes[i].Gap {
			t.Fatalf("class %d (gap %.3f) ordered after class %d (gap %.3f): want furthest below floor first",
				i-1, rep.Classes[i-1].Gap, i, rep.Classes[i].Gap)
		}
	}
}

func TestStormGracefulDegradation(t *testing.T) {
	reg := buildRegion("r1", 20000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	cls, err := c.AddClass(classSpec("r1", 30, 0.7))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if _, err := c.Attach(cls.Key(), 3); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// Collapse so hard no chain can reach the floor: the class must
	// degrade, never strand its members without accounting.
	collapse(t, c, reg, 0.02)
	rep, _, err := c.Storm()
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	if rep.AffectedClasses != 1 {
		t.Fatalf("AffectedClasses = %d, want 1", rep.AffectedClasses)
	}
	out := rep.Classes[0]
	if out.Outcome != storm.OutcomeDegraded && out.Outcome != storm.OutcomeNoChain {
		t.Fatalf("outcome = %q, want degraded or no-chain", out.Outcome)
	}
	if rep.DegradedSessions != 3 {
		t.Fatalf("DegradedSessions = %d, want 3", rep.DegradedSessions)
	}
	got, ok := c.Class(cls.Key())
	if !ok || !got.Degraded() {
		t.Fatal("class not marked degraded after below-floor storm")
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("leak after degradation: %.3f kbps", d)
	}
}

// TestServiceDownReplansThroughHost: deregistering a service the class
// chain runs through marks its host's links pending, and the next storm
// re-plans the class around it; a non-reserving member rides the new
// chain without ever holding bandwidth.
func TestServiceDownReplansThroughHost(t *testing.T) {
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cls, err := c.AddClass(classSpec("r1", 30, 0.3))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if _, err := c.Attach(cls.Key(), 2); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := c.AttachSession(cls.Key(), "free", false); err != nil {
		t.Fatalf("AttachSession: %v", err)
	}
	before, _ := c.MemberState("free")
	if len(before.Held) != 0 {
		t.Fatalf("non-reserving member holds %v", before.Held)
	}
	victim := string(before.Path[1])

	if err := c.SetServiceDown("r1", service.ID(victim), true); err != nil {
		t.Fatalf("SetServiceDown: %v", err)
	}
	rep, _, err := c.Storm()
	if err != nil || rep == nil || rep.AffectedClasses != 1 {
		t.Fatalf("Storm = %+v, %v; want the class re-planned", rep, err)
	}
	after, _ := c.MemberState("free")
	for _, hop := range after.Path {
		if string(hop) == victim {
			t.Fatalf("chain %v still runs through deregistered %s", after.Path, victim)
		}
	}
	if len(after.Held) != 0 || after.Swaps != 1 {
		t.Fatalf("non-reserving member after storm: held %v, swaps %d; want nothing held, one swap", after.Held, after.Swaps)
	}
	if got := c.RegionServices("r1").Down(); len(got) != 1 || string(got[0]) != victim {
		t.Fatalf("region down services = %v, want [%s]", got, victim)
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("leak after service storm: %.3f kbps", d)
	}
}

func TestOnFaultsFeedsPendingSet(t *testing.T) {
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cls, err := c.AddClass(classSpec("r1", 30, 0.6))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if _, err := c.Attach(cls.Key(), 2); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// Fire a correlated two-link collapse through the fault layer; the
	// changed-link reduction must reach the controller's pending set.
	fired := []fault.Fault{
		{Kind: fault.BandwidthCollapse, From: "sender", To: "p1", Factor: 0.5, Group: "backbone-t1"},
		{Kind: fault.BandwidthCollapse, From: "sender", To: "p2", Factor: 0.5, Group: "backbone-t1"},
	}
	for _, f := range fired {
		capKbps, _, _ := reg.Net.Capacity(f.From, f.To)
		if err := reg.Net.SetBandwidth(f.From, f.To, capKbps*f.Factor); err != nil {
			t.Fatalf("SetBandwidth: %v", err)
		}
	}
	n, err := c.OnFaults("r1", fired)
	if err != nil {
		t.Fatalf("OnFaults: %v", err)
	}
	if n != 2 {
		t.Fatalf("OnFaults reported %d changed links, want 2", n)
	}
	if st := c.Status(); st.PendingLinks != 2 {
		t.Fatalf("Status.PendingLinks = %d, want 2", st.PendingLinks)
	}
	if _, err := c.OnFaults("no-such-region", fired); err == nil {
		t.Fatal("OnFaults accepted an unknown region")
	}
}

func TestStatusSnapshot(t *testing.T) {
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cls, err := c.AddClass(classSpec("r1", 28, 0.6))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if _, err := c.Attach(cls.Key(), 7); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	collapse(t, c, reg, 0.5)
	if _, _, err := c.Storm(); err != nil {
		t.Fatalf("Storm: %v", err)
	}
	st := c.Status()
	if st.Regions != 1 || st.Classes != 1 || st.Sessions != 7 {
		t.Fatalf("Status = %+v, want 1 region, 1 class, 7 sessions", st)
	}
	if st.Storms != 1 || st.Active {
		t.Fatalf("Status storms/active = %d/%v, want 1/false", st.Storms, st.Active)
	}
	if st.PendingLinks != 0 {
		t.Fatalf("Status.PendingLinks = %d after storm, want 0", st.PendingLinks)
	}
	if st.LastStorm == nil || st.LastStorm.AffectedSessions != 7 {
		t.Fatalf("Status.LastStorm = %+v, want 7 affected sessions", st.LastStorm)
	}
}

// TestStormWritesNoAdmissionCounters: a storm's class re-plans are not
// client requests. The controller shares its Counters with the HTTP
// admission layer in the daemon, so it must leave admission.* alone —
// otherwise every re-planned class reads as an admitted request.
func TestStormWritesNoAdmissionCounters(t *testing.T) {
	reg := buildRegion("r1", 80000)
	r := metrics.NewRegistry()
	metrics.RegisterWellKnown(r)
	c, err := storm.Open(storm.Config{Counters: metrics.CountersOn(r)}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ideals := []float64{30, 26, 22}
	for i, ideal := range ideals {
		cls, err := c.AddClass(classSpec("r1", ideal, 0.6))
		if err != nil {
			t.Fatalf("AddClass %d: %v", i, err)
		}
		if _, err := c.Attach(cls.Key(), 4); err != nil {
			t.Fatalf("Attach %d: %v", i, err)
		}
	}
	collapse(t, c, reg, 0.5)
	rep, _, err := c.Storm()
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	if rep.SelectCalls != len(ideals) {
		t.Fatalf("storm re-planned %d classes, want %d", rep.SelectCalls, len(ideals))
	}
	if got := r.CounterValue(metrics.CounterStormSelectCalls); got != int64(len(ideals)) {
		t.Fatalf("storm.select_calls = %d, want %d", got, len(ideals))
	}
	for _, name := range []string{metrics.CounterAdmissionAdmitted, metrics.CounterAdmissionQueued} {
		if got := r.CounterValue(name); got != 0 {
			t.Errorf("%s = %d after a storm, want 0", name, got)
		}
	}
}
