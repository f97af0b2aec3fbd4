package storm_test

// Tests for the storm controller's live behavior: class identity,
// reservation accounting, plan-once-per-class storms, priority
// ordering, and graceful degradation. Durability (storm record replay,
// lost records and legacy records) is covered in journal_test.go.

import (
	"fmt"
	"math"
	"math/rand"
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
	if st.Storms != 1 {
		t.Fatalf("Status.Storms = %d, want 1", st.Storms)
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

// TestStormPlansMatchFreshGraph checks the storm against the paper's
// Select on the overlay as it is: over generated regions, class mixes
// and storms, every class plan must equal the plan Select makes for
// each member on a cold graph.Build of the overlay the class planned
// against (Config.Verify), and the holds must match the overlay's
// reservations after every storm.
func TestStormPlansMatchFreshGraph(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		stormAgainstFreshGraph(t, seed)
	}
}

// stormAgainstFreshGraph runs one generated scenario: link capacities
// uniform in 200–3,200 kbps, 2–5 classes of 1–8 reserving members, and
// 6 storms that each rescale 1–3 random links — to 1e-4 of their
// capacity or by a factor in 0.2–1.8.
func stormAgainstFreshGraph(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := buildRegion("r1", 1000)
	seen := make(map[overlay.LinkRef]bool)
	var links []overlay.LinkRef
	for _, node := range reg.Net.Nodes() {
		for _, l := range reg.Net.LinksOf(node) {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	for _, l := range links {
		if err := reg.Net.SetBandwidth(l.From, l.To, 200+3000*rng.Float64()); err != nil {
			t.Fatalf("seed %d: SetBandwidth: %v", seed, err)
		}
	}
	c, err := storm.Open(storm.Config{Verify: true}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("seed %d: Open: %v", seed, err)
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		cls, err := c.AddClass(classSpec("r1", 5+25*rng.Float64(), 0.6*rng.Float64()))
		if err != nil {
			continue // nothing composes for this draw
		}
		if _, err := c.Attach(cls.Key(), 1+rng.Intn(8)); err != nil {
			t.Fatalf("seed %d: Attach: %v", seed, err)
		}
	}
	for s := 1; s <= 6; s++ {
		changed := make([]overlay.LinkRef, 0, 3)
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			l := links[rng.Intn(len(links))]
			factor := 1e-4
			if rng.Intn(2) == 0 {
				factor = 0.2 + 1.6*rng.Float64()
			}
			if err := reg.Net.ScaleBandwidth(l.From, l.To, factor); err != nil {
				t.Fatalf("seed %d: ScaleBandwidth: %v", seed, err)
			}
			changed = append(changed, l)
		}
		if err := c.NotePending("r1", changed); err != nil {
			t.Fatalf("seed %d: NotePending: %v", seed, err)
		}
		rep, _, err := c.Storm()
		if err != nil {
			t.Fatalf("seed %d storm %d: %v", seed, s, err)
		}
		if rep != nil && rep.Mismatches != 0 {
			t.Fatalf("seed %d storm %d: %d of %d member plans differ from Select on a fresh graph",
				seed, s, rep.Mismatches, rep.NaiveChecks)
		}
		if d := leak(c, reg); d > 1e-6*math.Max(1, reg.Net.TotalReservedKbps()) {
			t.Fatalf("seed %d storm %d: leak %.6f kbps", seed, s, d)
		}
	}
}

// TestEnsureClassDuringStormRace: a class created while a storm runs
// shares the storm's cached class graph when its spec differs only in
// the floor (the graph cache keys on content, device, services and
// region). Creating it must wait for the storm, not refresh that graph
// in place under the storm's Select. Meaningful under -race.
func TestEnsureClassDuringStormRace(t *testing.T) {
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cls, err := c.AddClass(classSpec("r1", 30, 0.5))
	if err != nil {
		t.Fatalf("AddClass: %v", err)
	}
	if _, err := c.Attach(cls.Key(), 4); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	const rounds = 100
	links := reg.Net.LinksOf(reg.SenderHost)
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			factor := 0.5
			if i%2 == 1 {
				factor = 2
			}
			for _, l := range links {
				if err := reg.Net.ScaleBandwidth(l.From, l.To, factor); err != nil {
					done <- err
					return
				}
			}
			if err := c.NotePending(reg.Name, links); err != nil {
				done <- err
				return
			}
			if _, _, err := c.Storm(); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if _, err := c.EnsureClass(classSpec("r1", 30, 0.001*float64(i))); err != nil {
			t.Errorf("EnsureClass %d: %v", i, err)
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("storm goroutine: %v", err)
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("leak after concurrent storms: %.3f kbps", d)
	}
}

// TestDegradedTallyMatchesMembers is the oracle for the controller's
// degraded tally: over seeded mixes of attaches, detaches and storms on
// a live controller, each storm replayed onto a second controller
// through ReplayRecord, Status().DegradedSessions and the
// qos.degraded_sessions gauge must equal a recount of the members'
// MemberState flags on both controllers after every step.
func TestDegradedTallyMatchesMembers(t *testing.T) {
	peak := 0
	for seed := int64(1); seed <= 20; seed++ {
		peak = max(peak, degradedTally(t, seed))
	}
	if peak == 0 {
		t.Fatal("no scenario degraded a member; the oracle checked nothing")
	}
}

// tallySide is one controller of the degraded-tally oracle with the
// registry its counters write to.
type tallySide struct {
	name string
	c    *storm.Controller
	reg  storm.Region
	r    *metrics.Registry
}

// degradedTally runs one seeded scenario of the oracle and returns the
// most members it saw degraded at once.
func degradedTally(t *testing.T, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	open := func(name string) tallySide {
		reg := buildRegion("r1", 6000)
		r := metrics.NewRegistry()
		metrics.RegisterWellKnown(r)
		c, err := storm.Open(storm.Config{Counters: metrics.CountersOn(r)}, []storm.Region{reg})
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		return tallySide{name: name, c: c, reg: reg, r: r}
	}
	sides := []tallySide{open("live"), open("replica")}
	live := sides[0]
	var keys []string
	for _, ideal := range []float64{30, 20, 10} {
		spec := classSpec("r1", ideal, 0.5)
		for _, sd := range sides {
			if _, err := sd.c.AddClass(spec); err != nil {
				t.Fatalf("seed %d: %s AddClass: %v", seed, sd.name, err)
			}
		}
		keys = append(keys, spec.Key())
	}
	var links []overlay.LinkRef
	seen := make(map[overlay.LinkRef]bool)
	for _, node := range live.reg.Net.Nodes() {
		for _, l := range live.reg.Net.LinksOf(node) {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}

	var ids []string
	peak := 0
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || (op == 1 && len(ids) == 0):
			key, id, reserve := keys[rng.Intn(len(keys))], fmt.Sprintf("s%d", step), rng.Intn(4) != 0
			for _, sd := range sides {
				if _, err := sd.c.AttachSession(key, id, reserve); err != nil {
					t.Fatalf("seed %d step %d: %s attach: %v", seed, step, sd.name, err)
				}
			}
			ids = append(ids, id)
		case op == 1:
			i := rng.Intn(len(ids))
			for _, sd := range sides {
				if err := sd.c.DetachSession(ids[i]); err != nil {
					t.Fatalf("seed %d step %d: %s detach: %v", seed, step, sd.name, err)
				}
			}
			ids = append(ids[:i], ids[i+1:]...)
		default:
			changed := make([]overlay.LinkRef, 0, 3)
			for k, n := 0, 1+rng.Intn(3); k < n; k++ {
				l := links[rng.Intn(len(links))]
				factor := 1e-3
				if rng.Intn(2) == 0 {
					factor = 0.3 + 1.7*rng.Float64()
				}
				for _, sd := range sides {
					if err := sd.reg.Net.ScaleBandwidth(l.From, l.To, factor); err != nil {
						t.Fatalf("seed %d step %d: ScaleBandwidth: %v", seed, step, err)
					}
				}
				changed = append(changed, l)
			}
			if err := live.c.NotePending("r1", changed); err != nil {
				t.Fatalf("seed %d step %d: NotePending: %v", seed, step, err)
			}
			rep, rec, err := live.c.Storm()
			if err != nil {
				t.Fatalf("seed %d step %d: Storm: %v", seed, step, err)
			}
			if rep != nil {
				if err := sides[1].c.ReplayRecord(storm.RecordKind, rec); err != nil {
					t.Fatalf("seed %d step %d: ReplayRecord: %v", seed, step, err)
				}
			}
		}
		for _, sd := range sides {
			n := 0
			for _, id := range ids {
				v, ok := sd.c.MemberState(id)
				if !ok {
					t.Fatalf("seed %d step %d: %s lost member %s", seed, step, sd.name, id)
				}
				if v.Degraded {
					n++
				}
			}
			if got := sd.c.Status().DegradedSessions; got != n {
				t.Fatalf("seed %d step %d: %s Status().DegradedSessions = %d, recount %d", seed, step, sd.name, got, n)
			}
			if got := sd.r.GaugeValue(metrics.GaugeQoSDegradedSessions); got != float64(n) {
				t.Fatalf("seed %d step %d: %s degraded gauge = %v, recount %d", seed, step, sd.name, got, n)
			}
			peak = max(peak, n)
		}
	}
	if a, b := fingerprint(t, sides[0].c), fingerprint(t, sides[1].c); a != b {
		t.Fatalf("seed %d: replica fingerprint differs from live\nlive:    %s\nreplica: %s", seed, a, b)
	}
	return peak
}
