package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/overlay"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
)

// oracleStep applies one random overlay change to the Figure 6 network:
// a link's bandwidth to zero or back, a reservation that drives its
// available bandwidth to zero (or a capacity cut below what it holds), a
// release, a failed or recovered link or host, or a link removed or put
// back. Many Figure 6 edges ride multi-hop routes (sender→p11 only via
// p1), so removing or failing one link re-routes or disconnects pairs it
// does not join. Refused calls are ignored: the state after them is as
// good a probe as any.
func oracleStep(rng *rand.Rand, net *overlay.Network, links []profile.Link, hosts []string) string {
	l := links[rng.Intn(len(links))]
	switch rng.Intn(11) {
	case 0:
		_ = net.SetBandwidth(l.From, l.To, 0)
		return fmt.Sprintf("zero %s->%s", l.From, l.To)
	case 1:
		_ = net.SetBandwidth(l.From, l.To, l.BandwidthKbps)
		return fmt.Sprintf("restore %s->%s", l.From, l.To)
	case 2:
		if avail, _, _, ok := net.Link(l.From, l.To); ok && avail > 0 {
			_ = net.Reserve(l.From, l.To, avail)
		}
		return fmt.Sprintf("reserve-all %s->%s", l.From, l.To)
	case 3:
		if avail, _, _, ok := net.Link(l.From, l.To); ok && avail > 0 {
			_ = net.Reserve(l.From, l.To, avail*rng.Float64())
		}
		return fmt.Sprintf("reserve-some %s->%s", l.From, l.To)
	case 4:
		if capacity, reserved, ok := net.Capacity(l.From, l.To); ok && reserved > 0 {
			_ = net.SetBandwidth(l.From, l.To, reserved*rng.Float64())
			return fmt.Sprintf("cut %s->%s below its %v/%v kbps held", l.From, l.To, reserved, capacity)
		}
		net.Release(l.From, l.To, l.BandwidthKbps)
		return fmt.Sprintf("release %s->%s", l.From, l.To)
	case 5:
		_ = net.FailLink(l.From, l.To)
		return fmt.Sprintf("faillink %s->%s", l.From, l.To)
	case 6:
		_ = net.RecoverLink(l.From, l.To)
		return fmt.Sprintf("recoverlink %s->%s", l.From, l.To)
	case 7:
		h := hosts[rng.Intn(len(hosts))]
		_ = net.FailHost(h)
		return "failhost " + h
	case 8:
		h := hosts[rng.Intn(len(hosts))]
		_ = net.RecoverHost(h)
		return "recoverhost " + h
	case 9:
		net.RemoveLink(l.From, l.To)
		return fmt.Sprintf("remove %s->%s", l.From, l.To)
	default:
		if _, _, ok := net.Capacity(l.From, l.To); !ok {
			net.AddLink(l.From, l.To, l.BandwidthKbps, l.DelayMs, l.LossRate)
		}
		return fmt.Sprintf("add %s->%s", l.From, l.To)
	}
}

// maskDiff checks a graph's masks against the overlay itself rather than
// against another build: an edge is live exactly when the overlay
// connects its host pair, and no live edge reads zero bandwidth (which
// Select would take for unlimited). structural is a build of the same
// input with no network, where every edge is live.
func maskDiff(g, structural *graph.Graph, net *overlay.Network) string {
	for _, id := range structural.NodeIDs() {
		for _, s := range structural.Out(id) {
			from, _ := g.Node(s.From)
			to, _ := g.Node(s.To)
			connected := net.AvailableBandwidth(from.Host, to.Host) > 0
			e := g.EdgeBetween(s.From, s.To, s.Format)
			if (e != nil) != connected {
				return fmt.Sprintf("%s-[%s]->%s live %v, but its hosts %s->%s connected %v",
					s.From, s.Format, s.To, e != nil, from.Host, to.Host, connected)
			}
		}
		for _, e := range g.Out(id) {
			if e.BandwidthKbps <= 0 {
				return fmt.Sprintf("live edge %s->%s reads %v kbps", e.From, e.To, e.BandwidthKbps)
			}
		}
	}
	return ""
}

// TestCachedGraphMatchesColdBuild is the oracle for in-place refresh:
// over 300 seeded random sequences of overlay changes on the Figure 6
// deployment, the cached graph — built once, then only re-annotated,
// masked and relinked — must after every step read exactly like a cold
// Build of the overlay as it is (graph.DiffGraphs: String, EdgeCount,
// Out/In order at every vertex, every live edge's annotations,
// EdgeBetween for every structural edge), mask exactly the edges whose
// hosts the overlay cannot connect (maskDiff), and Select on it must
// return the cold graph's result, Table 1 style trace included.
func TestCachedGraphMatchesColdBuild(t *testing.T) {
	cfg := paperexample.Table1Config()
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := paperexample.Table1Network()
		links, hosts := net.Snapshot().Links, net.Nodes()
		in := graph.Input{
			Content:      paperexample.Table1Content(),
			Device:       paperexample.Table1Device(),
			Services:     paperexample.Table1Services(seed%2 == 0),
			Net:          net,
			SenderHost:   "sender",
			ReceiverHost: "receiver",
		}
		free := in
		free.Net = nil
		structural, err := graph.Build(free)
		if err != nil {
			t.Fatal(err)
		}
		key := graph.InputKey(&in)
		c := graph.NewCache(0)
		first, _, err := c.BuildKeyed(key, in)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			what := oracleStep(rng, net, links, hosts)
			if rng.Intn(3) == 0 {
				what += ", " + oracleStep(rng, net, links, hosts) // changes pile up between lookups
			}
			g, _, err := c.BuildKeyed(key, in)
			if err != nil {
				t.Fatal(err)
			}
			if g != first {
				t.Fatalf("seed %d step %d (%s): an overlay change replaced the cached graph", seed, step, what)
			}
			cold, err := graph.Build(in)
			if err != nil {
				t.Fatal(err)
			}
			if d := graph.DiffGraphs(g, cold); d != "" {
				t.Fatalf("seed %d step %d (%s): cached graph differs from a cold build: %s", seed, step, what, d)
			}
			if d := maskDiff(g, structural, net); d != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, what, d)
			}
			got, gotErr := core.Select(g, cfg)
			want, wantErr := core.Select(cold, cfg)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): Select on the cached graph = %+v, %v; on a cold build %+v, %v",
					seed, step, what, got, gotErr, want, wantErr)
			}
		}
		if st := c.Stats(); st.Misses != 1 {
			t.Fatalf("seed %d: %d builds, want the first only", seed, st.Misses)
		}
	}
}
