package storm

import (
	"testing"

	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// TestServiceDownRekeysClass: a class holds the graph cache key of its
// planning input. A service fault changes the services the class plans
// over, so its next re-plan must re-derive the key with them — a stale
// key would hand back the cached graph that still offers the dead
// service. With Verify on, every member's naive Select on a cold build
// must agree with the class plan; recovering the service brings the
// first key back.
func TestServiceDownRekeysClass(t *testing.T) {
	net := paperexample.Table1Network()
	for _, node := range net.Nodes() {
		for _, ref := range net.LinksOf(node) {
			_ = net.SetBandwidth(ref.From, ref.To, 1e6)
		}
	}
	c, err := Open(Config{Verify: true, Counters: metrics.NewCounters()}, []Region{{
		Name: "r", Net: net, Services: paperexample.Table1Services(true),
		SenderHost: "sender", ReceiverHost: "receiver",
	}})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := c.AddClass(ClassSpec{
		Region:  "r",
		Content: *paperexample.Table1Content(),
		Device:  *paperexample.Table1Device(),
		User: profile.User{Name: "u", Preferences: map[media.Param]profile.FuncSpec{
			media.ParamFrameRate: profile.LinearSpec(0, 30),
		}},
		Floor: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(cls.key, 4); err != nil {
		t.Fatal(err)
	}
	key0 := cls.gkey
	if key0 != graph.InputKey(&cls.in) {
		t.Fatal("a new class does not hold its input's cache key")
	}
	victim := service.ID(cls.current.Path[1])

	if err := c.SetServiceDown("r", victim, true); err != nil {
		t.Fatal(err)
	}
	rep, _, err := c.Storm()
	if err != nil || rep == nil || rep.AffectedClasses != 1 {
		t.Fatalf("servicedown storm = %+v, %v; want the class re-planned", rep, err)
	}
	if rep.NaiveChecks != 4 || rep.Mismatches != 0 {
		t.Fatalf("servicedown storm: %d naive checks, %d mismatches; want 4 and 0", rep.NaiveChecks, rep.Mismatches)
	}
	if cls.gkey == key0 || cls.gkey != graph.InputKey(&cls.in) {
		t.Fatalf("after servicedown the class holds key %x (first key %x, input key %x); want its re-derived input's key",
			cls.gkey, key0, graph.InputKey(&cls.in))
	}
	for _, hop := range cls.current.Path {
		if service.ID(hop) == victim {
			t.Fatalf("class chain %v still runs through the dead %s", cls.current.Path, victim)
		}
	}

	if err := c.SetServiceDown("r", victim, false); err != nil {
		t.Fatal(err)
	}
	if err := c.NoteReplan(cls.key); err != nil {
		t.Fatal(err)
	}
	rep, _, err = c.Storm()
	if err != nil || rep == nil || rep.Mismatches != 0 {
		t.Fatalf("serviceup storm = %+v, %v; want a clean re-plan", rep, err)
	}
	if cls.gkey != key0 {
		t.Fatalf("after serviceup the class holds key %x; want its first key %x back", cls.gkey, key0)
	}
}
