package storm

// runs_test.go holds the per-member fan-out the run-based one replaced —
// one overlay call per member for release, restore, drop and swap — as
// an oracle: on cloned controllers over seeded random classes, both
// must reach the same fingerprint, swap failures, dropped members,
// degraded tally, counters and bit-identical overlay ledger.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
)

// oracleRelease is the per-member releaseMembersLocked.
func oracleRelease(c *Controller, cls *Class) [][]overlay.Reservation {
	r := c.regions[cls.spec.Region]
	saved := make([][]overlay.Reservation, len(cls.members))
	for i, s := range cls.members {
		if len(s.held) > 0 {
			r.Net.ReleaseChain(s.held)
			saved[i] = s.held
		}
	}
	return saved
}

// oracleRestore is the per-member restoreMembersLocked.
func oracleRestore(c *Controller, cls *Class, saved [][]overlay.Reservation) []string {
	r := c.regions[cls.spec.Region]
	var dropped []string
	for i, hold := range saved {
		if len(hold) == 0 {
			continue
		}
		if err := r.Net.ReserveChain(hold); err != nil {
			cls.members[i].held = nil
			c.setDegradedLocked(cls.members[i], true)
			dropped = append(dropped, cls.members[i].ID)
		}
	}
	return dropped
}

// oracleDrop is the per-member dropHoldsLocked.
func oracleDrop(c *Controller, cls *Class, ids []string) {
	r := c.regions[cls.spec.Region]
	for _, id := range ids {
		s, ok := c.memberIdx[id]
		if !ok || s.class != cls {
			continue
		}
		r.Net.ReleaseChain(s.held)
		s.held = nil
		c.setDegradedLocked(s, true)
	}
}

// oracleApply is applyPlanLocked with the per-member swap loop: one
// SwapChain and one counter increment per member, each member holding
// its own copy of the new hold.
func oracleApply(c *Controller, cls *Class, res *core.Result, degraded bool) ClassOutcome {
	prev := make([]bool, len(cls.members))
	for i, s := range cls.members {
		prev[i] = s.degraded
	}
	defer c.qosApplyLocked(cls, prev)
	out := ClassOutcome{Key: cls.key, Members: len(cls.members)}
	if res == nil || !res.Found {
		cls.degraded = true
		for _, s := range cls.members {
			c.setDegradedLocked(s, true)
		}
		if !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		out.Outcome = OutcomeNoChain
		out.Chain = cls.Chain()
		out.Satisfaction = cls.Satisfaction()
		return out
	}
	kbps := cls.planKbps(res)
	same := cls.current != nil && cls.current.Found &&
		core.PathString(cls.current.Path) == core.PathString(res.Path) &&
		cls.kbps == kbps
	cls.current = res
	cls.kbps = kbps
	cls.degraded = degraded
	out.Chain = cls.Chain()
	out.Satisfaction = res.Satisfaction
	if same {
		for _, s := range cls.members {
			c.setDegradedLocked(s, degraded)
		}
		out.Outcome = OutcomeUnchanged
		if degraded && !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		return out
	}
	r := c.regions[cls.spec.Region]
	newHolds := c.chainReservations(cls)
	for _, s := range cls.members {
		if s.reserve {
			hold := append([]overlay.Reservation(nil), newHolds...)
			if err := r.Net.SwapChain(s.held, hold); err != nil {
				c.setDegradedLocked(s, true)
				out.SwapFailed++
				continue
			}
			s.held = hold
		}
		c.setDegradedLocked(s, degraded)
		s.swaps++
		if !c.replaying {
			c.cfg.Counters.Inc(metrics.CounterStormSessionsReplanned)
			if degraded {
				c.cfg.Counters.Inc(metrics.CounterStormDegraded)
			}
		}
	}
	if degraded {
		out.Outcome = OutcomeDegraded
	} else {
		out.Outcome = OutcomeReplanned
	}
	return out
}

// oracleControllers builds two identical controllers over a Table 1
// region with ample capacity, three classes at different frame rates
// and a seeded mix of reserving and non-reserving members.
func oracleControllers(t *testing.T, seed int64) (run, serial *Controller, keys []string) {
	t.Helper()
	build := func() *Controller {
		net := paperexample.Table1Network()
		for _, node := range net.Nodes() {
			for _, ref := range net.LinksOf(node) {
				_ = net.SetBandwidth(ref.From, ref.To, 1e7)
			}
		}
		c, err := Open(Config{Counters: metrics.NewCounters()}, []Region{{
			Name: "r", Net: net, Services: paperexample.Table1Services(true),
			SenderHost: "sender", ReceiverHost: "receiver",
		}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run, serial = build(), build()
	rng := rand.New(rand.NewSource(seed))
	for i, ideal := range []float64{30, 20, 12} {
		spec := ClassSpec{
			Region:  "r",
			Content: *paperexample.Table1Content(),
			Device:  *paperexample.Table1Device(),
			User: profile.User{Name: fmt.Sprintf("u%d", i), Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, ideal),
			}},
			Floor: 0.3,
		}
		for _, c := range []*Controller{run, serial} {
			if _, err := c.AddClass(spec); err != nil {
				t.Fatal(err)
			}
		}
		keys = append(keys, spec.Key())
	}
	for n := 0; n < 60; n++ {
		attachBoth(t, rng, run, serial, keys, n)
	}
	return run, serial, keys
}

func attachBoth(t *testing.T, rng *rand.Rand, run, serial *Controller, keys []string, n int) {
	t.Helper()
	key, reserve := keys[rng.Intn(len(keys))], rng.Intn(5) != 0
	for _, c := range []*Controller{run, serial} {
		if _, err := c.AttachSession(key, fmt.Sprintf("m%d", n), reserve); err != nil {
			t.Fatal(err)
		}
	}
}

// planPool derives plan results for a class: its current plan, Select
// on the region with one proxy failed (other chains), and copies at
// other frame rates (other bitrates on the same chain). nil stands for
// a plan that found nothing.
func planPool(t *testing.T, c *Controller, cls *Class) []*core.Result {
	t.Helper()
	pool := []*core.Result{cls.current, nil}
	for _, host := range []string{"p7", "p8", "p10", "p9"} {
		net := paperexample.Table1Network()
		_ = net.FailHost(host)
		in := cls.in
		in.Net = net
		g, err := graph.Build(in)
		if err != nil {
			continue
		}
		res, err := core.Select(g, cls.selcfg)
		if (err == nil || errors.Is(err, core.ErrBelowFloor)) && res != nil && res.Found {
			pool = append(pool, res)
		}
	}
	for _, base := range pool[:len(pool):len(pool)] {
		if base == nil {
			continue
		}
		for _, f := range []float64{0.5, 0.8} {
			v := *base
			v.Params = base.Params.Clone()
			v.Params[media.ParamFrameRate] *= f
			pool = append(pool, &v)
		}
	}
	return pool
}

// perturb is a random event on both overlays: links resized around
// their standing reservations — some below them, so holds no longer fit
// and only k of a run's n swaps or restores succeed — and now and then
// a link failed or recovered.
func perturb(rng *rand.Rand, nets ...*overlay.Network) {
	ref := nets[0]
	for _, node := range ref.Nodes() {
		for _, l := range ref.LinksOf(node) {
			if l.From != node || rng.Intn(3) != 0 {
				continue
			}
			_, reserved, _ := ref.Capacity(l.From, l.To)
			capKbps := reserved*(0.4+rng.Float64()) + rng.Float64()*30000
			down := rng.Intn(25)
			for _, n := range nets {
				_ = n.SetBandwidth(l.From, l.To, capKbps)
				switch down {
				case 0:
					_ = n.FailLink(l.From, l.To)
				case 1, 2:
					_ = n.RecoverLink(l.From, l.To)
				}
			}
		}
	}
}

// sameState fails unless the two controllers agree on everything the
// fan-out writes.
func sameState(t *testing.T, label string, run, serial *Controller) {
	t.Helper()
	a, errA := run.Fingerprint()
	b, errB := serial.Fingerprint()
	if errA != nil || errB != nil || a != b {
		t.Fatalf("%s: fingerprints diverge (%v, %v):\n run    %s\n serial %s", label, errA, errB, a, b)
	}
	if run.degradedSessions != serial.degradedSessions {
		t.Fatalf("%s: degraded tally %d vs serial %d", label, run.degradedSessions, serial.degradedSessions)
	}
	for id, s := range run.memberIdx {
		if o := serial.memberIdx[id]; o == nil || o.swaps != s.swaps {
			t.Fatalf("%s: member %s swaps differ", label, id)
		}
	}
	if a, b := run.cfg.Counters.Snapshot(), serial.cfg.Counters.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counters %v vs serial %v", label, a, b)
	}
	na, nb := run.regions["r"].Net, serial.regions["r"].Net
	for _, node := range na.Nodes() {
		for _, l := range na.LinksOf(node) {
			ca, ra, _ := na.Capacity(l.From, l.To)
			cb, rb, _ := nb.Capacity(l.From, l.To)
			if ca != cb || ra != rb {
				t.Fatalf("%s: link %s->%s (%v, %v) vs serial (%v, %v)", label, l.From, l.To, ca, ra, cb, rb)
			}
		}
	}
}

// TestRunFanOutMatchesPerMemberOracle drives cloned controllers through
// seeded random events, live re-plans (release, restore, swap), replayed
// re-plans (drop, swap), attaches and detaches — the run-based path on
// one, the per-member oracle on the other — and compares them after
// every step.
func TestRunFanOutMatchesPerMemberOracle(t *testing.T) {
	var swapFailed, dropped, partial int
	for seed := int64(0); seed < 40; seed++ {
		run, serial, keys := oracleControllers(t, seed)
		pools := make(map[string][]*core.Result)
		for _, key := range keys {
			pools[key] = planPool(t, run, run.classes[key])
		}
		rng := rand.New(rand.NewSource(seed))
		next := 60
		for step := 0; step < 60; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			key := keys[rng.Intn(len(keys))]
			ca, cb := run.classes[key], serial.classes[key]
			pool := pools[key]
			res, degraded := pool[rng.Intn(len(pool))], rng.Intn(4) == 0
			switch op := rng.Intn(10); {
			case op < 3:
				perturb(rng, run.regions["r"].Net, serial.regions["r"].Net)
			case op < 6: // a live re-plan
				run.releaseMembersLocked(ca)
				gotDropped := run.restoreMembersLocked(ca)
				wantDropped := oracleRestore(serial, cb, oracleRelease(serial, cb))
				if !reflect.DeepEqual(gotDropped, wantDropped) {
					t.Fatalf("%s: dropped %v, serial %v", label, gotDropped, wantDropped)
				}
				dropped += len(gotDropped)
				got, want := run.applyPlanLocked(ca, res, degraded), oracleApply(serial, cb, res, degraded)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: outcome %+v, serial %+v", label, got, want)
				}
				swapFailed += got.SwapFailed
				if got.SwapFailed > 0 && got.SwapFailed < got.Members {
					partial++
				}
			case op < 8: // a replayed re-plan
				var ids []string
				for _, s := range ca.members {
					if rng.Intn(3) == 0 {
						ids = append(ids, s.ID)
					}
				}
				run.replaying, serial.replaying = true, true
				run.dropHoldsLocked(ca, ids)
				oracleDrop(serial, cb, ids)
				got, want := run.applyPlanLocked(ca, res, degraded), oracleApply(serial, cb, res, degraded)
				run.replaying, serial.replaying = false, false
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replayed outcome %+v, serial %+v", label, got, want)
				}
			case op < 9:
				attachBoth(t, rng, run, serial, keys, next)
				next++
			default:
				if len(ca.members) > 0 {
					id := ca.members[rng.Intn(len(ca.members))].ID
					if run.DetachSession(id) != nil || serial.DetachSession(id) != nil {
						t.Fatalf("%s: detach %s", label, id)
					}
				}
			}
			sameState(t, label, run, serial)
		}
	}
	// The random schedule must reach the cases the runs have to get
	// right, or the comparison proves little.
	if swapFailed == 0 || dropped == 0 || partial == 0 {
		t.Fatalf("schedule too tame: %d swap failures (%d partial), %d dropped holds", swapFailed, partial, dropped)
	}
	t.Logf("%d swap failures (%d classes partly moved), %d dropped holds", swapFailed, partial, dropped)
}
