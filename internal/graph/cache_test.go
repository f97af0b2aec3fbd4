package graph

import (
	"fmt"
	"sync"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// cacheNet builds the two-hop overlay the cache tests mutate.
func cacheNet() *overlay.Network {
	net := overlay.New()
	net.AddLink("sender", "p1", 2000, 5, 0)
	net.AddLink("p1", "recv", 1500, 5, 0)
	return net
}

// cacheInput is a minimal buildable input: one converter on p1 between
// the source format and the device's only decoder.
func cacheInput(net *overlay.Network) Input {
	return Input{
		Content: &profile.Content{ID: "c", Variants: []media.Descriptor{
			{Format: media.Opaque(1), Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Device: &profile.Device{ID: "d", Software: profile.Software{
			Decoders: []media.Format{media.Opaque(2)},
		}},
		Services: []*service.Service{{
			ID:      "s1",
			Inputs:  []media.Format{media.Opaque(1)},
			Outputs: []media.Format{media.Opaque(2)},
			Host:    "p1",
		}},
		Net:          net,
		SenderHost:   "sender",
		ReceiverHost: "recv",
	}
}

func TestCacheHitReturnsSameGraph(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	g1, err := c.Build(cacheInput(net))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Build(cacheInput(net))
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("unchanged input should return the cached graph instance")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheBandwidthChangeRefreshesEdgesInPlace(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	g1, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetBandwidth("sender", "p1", 900); err != nil {
		t.Fatal(err)
	}
	g2, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("bandwidth-only change must refresh the cached graph, not rebuild it")
	}
	out := g2.Out(SenderID)
	if len(out) != 1 || out[0].BandwidthKbps != 900 {
		t.Fatalf("sender edge bandwidth = %v, want refreshed to 900", out)
	}
	if st := c.Stats(); st.Refreshes != 1 {
		t.Fatalf("stats = %+v, want 1 refresh", st)
	}
}

// DiffGraphs describes the first way in which got does not read like
// want, or returns "": the same String and EdgeCount, the same Out and In
// edges in the same order at every vertex with the same annotations, and
// the same EdgeBetween answer for every edge either graph knows, masked
// ones included. The refresh oracle (refresh_oracle_test.go) uses it to
// hold a refreshed cached graph against a cold Build.
func DiffGraphs(got, want *Graph) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("String:\n%s\nwant:\n%s", g, w)
	}
	if g, w := got.EdgeCount(), want.EdgeCount(); g != w {
		return fmt.Sprintf("EdgeCount = %d, want %d", g, w)
	}
	for _, id := range want.NodeIDs() {
		if d := diffEdges("Out("+string(id)+")", got.Out(id), want.Out(id)); d != "" {
			return d
		}
		if d := diffEdges("In("+string(id)+")", got.In(id), want.In(id)); d != "" {
			return d
		}
	}
	for _, es := range [][]*Edge{got.all, want.all} {
		for _, e := range es {
			g, w := got.EdgeBetween(e.From, e.To, e.Format), want.EdgeBetween(e.From, e.To, e.Format)
			what := fmt.Sprintf("EdgeBetween(%s, %s, %s)", e.From, e.To, e.Format)
			if g == nil || w == nil {
				if g != w {
					return fmt.Sprintf("%s = %v, want %v", what, g, w)
				}
				continue
			}
			if d := diffEdges(what, []*Edge{g}, []*Edge{w}); d != "" {
				return d
			}
		}
	}
	return ""
}

// diffEdges compares two edge lists position by position on identity
// (endpoints, format, source parameters) and annotations.
func diffEdges(what string, got, want []*Edge) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s has %d edges, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.From != w.From || g.To != w.To || g.Format != w.Format || !g.SourceParams.Equal(w.SourceParams, 0) {
			return fmt.Sprintf("%s[%d] = %s-[%s]->%s, want %s-[%s]->%s", what, i, g.From, g.Format, g.To, w.From, w.Format, w.To)
		}
		if g.BandwidthKbps != w.BandwidthKbps || g.DelayMs != w.DelayMs || g.LossRate != w.LossRate {
			return fmt.Sprintf("%s[%d] %s->%s annotated %v/%v/%v, want %v/%v/%v", what, i, g.From, g.To,
				g.BandwidthKbps, g.DelayMs, g.LossRate, w.BandwidthKbps, w.DelayMs, w.LossRate)
		}
	}
	return ""
}

// refreshedLikeCold looks the input up in the cache and fails unless the
// lookup refreshed the cached graph in place and the graph reads like a
// cold Build of the overlay as it is now.
func refreshedLikeCold(t *testing.T, c *Cache, in Input, cached *Graph) *Graph {
	t.Helper()
	g, outcome, err := c.BuildKeyed(InputKey(&in), in)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeRefresh || g != cached {
		t.Fatalf("outcome = %s (same graph %v), want an in-place %s", outcome, g == cached, OutcomeRefresh)
	}
	cold, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffGraphs(g, cold); d != "" {
		t.Fatalf("refreshed graph differs from a cold build: %s", d)
	}
	return g
}

// TestCacheZeroCrossingRefreshesInPlace: available bandwidth hitting zero
// disconnects a host pair. The cached graph masks the edge in place — it
// is gone from Out, as in a cold build — and unmasks it when bandwidth
// returns; neither crossing rebuilds.
func TestCacheZeroCrossingRefreshesInPlace(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	g, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Out(SenderID)) != 1 {
		t.Fatalf("expected one sender edge, got %d", len(g.Out(SenderID)))
	}
	if err := net.SetBandwidth("sender", "p1", 0); err != nil {
		t.Fatal(err)
	}
	refreshedLikeCold(t, c, in, g)
	if len(g.Out(SenderID)) != 0 || g.EdgeCount() != 1 {
		t.Fatalf("the disconnected edge is still live: Out(sender) %d, EdgeCount %d", len(g.Out(SenderID)), g.EdgeCount())
	}
	if err := net.SetBandwidth("sender", "p1", 2000); err != nil {
		t.Fatal(err)
	}
	refreshedLikeCold(t, c, in, g)
	if out := g.Out(SenderID); len(out) != 1 || out[0].BandwidthKbps != 2000 {
		t.Fatalf("reconnected sender edge = %v, want one edge at 2000 kbps", out)
	}
	if st := c.Stats(); st.Misses != 1 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 refreshes", st)
	}
}

// TestCacheTopologyChangeRefreshesInPlace: removing the link a graph
// edge rides on masks that edge in place, and adding it back unmasks it.
func TestCacheTopologyChangeRefreshesInPlace(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	g, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	net.RemoveLink("p1", "recv")
	refreshedLikeCold(t, c, in, g)
	if len(g.Out("s1")) != 0 || len(g.In(ReceiverID)) != 0 {
		t.Fatalf("the edge over the removed link is still live: Out(s1) %v", g.Out("s1"))
	}
	net.AddLink("p1", "recv", 1500, 5, 0)
	refreshedLikeCold(t, c, in, g)
	if len(g.Out("s1")) != 1 {
		t.Fatalf("the edge over the re-added link is not live: Out(s1) %v", g.Out("s1"))
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v: a topology change must not rebuild", st)
	}
}

// TestCacheLinkDownRefreshesInPlace: a failed link re-annotates the
// edges over it from the route that remains, and once no route is left
// masks them in place; the graph reads like a cold build throughout.
func TestCacheLinkDownRefreshesInPlace(t *testing.T) {
	net := threeProxyNet()
	c := NewCache(0)
	in := threeProxyInput(net)
	g, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	toReceiver := func() *Edge { return g.EdgeBetween("s1", ReceiverID, media.Opaque(2)) }
	if err := net.FailLink("p1", "recv"); err != nil {
		t.Fatal(err)
	}
	refreshedLikeCold(t, c, in, g)
	if e := toReceiver(); e == nil || e.BandwidthKbps != 1400 {
		t.Fatalf("s1->receiver = %v, want it routed over p3 at 1400 kbps", e)
	}
	if err := net.FailLink("p1", "p3"); err != nil {
		t.Fatal(err)
	}
	refreshedLikeCold(t, c, in, g)
	if e := toReceiver(); e != nil {
		t.Fatalf("s1->receiver is still live with no route left: %v", e)
	}
	for _, e := range g.Out("s1") {
		if e.To == ReceiverID {
			t.Fatalf("the disconnected edge is still in Out(s1): %v", g.Out("s1"))
		}
	}
	if err := net.RecoverLink("p1", "recv"); err != nil {
		t.Fatal(err)
	}
	refreshedLikeCold(t, c, in, g)
	if st := c.Stats(); st.Misses != 1 || st.Refreshes != 3 {
		t.Fatalf("stats = %+v, want 1 miss and 3 refreshes", st)
	}
}

func TestCacheInvalidateAndReset(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	if _, err := c.Build(in); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(in)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries after Invalidate = %d, want 0", st.Entries)
	}
	if _, err := c.Build(in); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries after Reset = %d, want 0", st.Entries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	net := cacheNet()
	c := NewCache(1)
	inA := cacheInput(net)
	inB := cacheInput(net)
	inB.Content = &profile.Content{ID: "other", Variants: inA.Content.Variants}
	gA, err := c.Build(inA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(inB); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (evicted)", st.Entries)
	}
	gA2, err := c.Build(inA)
	if err != nil {
		t.Fatal(err)
	}
	if gA == gA2 {
		t.Fatal("A was evicted; a fresh build must return a new graph")
	}
}

func TestCacheBuildFromSet(t *testing.T) {
	set := &profile.Set{
		User: profile.User{
			Name: "u",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, 30),
			},
		},
		Content: profile.Content{ID: "c", Variants: []media.Descriptor{
			{Format: media.Opaque(1), Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Device: profile.Device{ID: "d", Software: profile.Software{
			Decoders: []media.Format{media.Opaque(2)},
		}},
		Network: profile.Network{Links: []profile.Link{
			{From: "sender", To: "p1", BandwidthKbps: 2000},
			{From: "p1", To: "d", BandwidthKbps: 1500},
		}},
		Intermediaries: []profile.Intermediary{{
			Host: "p1", CPUMips: 1000, MemoryMB: 256,
			Services: []*service.Service{{
				ID:      "s1",
				Inputs:  []media.Format{media.Opaque(1)},
				Outputs: []media.Format{media.Opaque(2)},
			}},
		}},
	}
	c := NewCache(0)
	g1, err := c.BuildFromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.BuildFromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("equal sets must share one cached graph")
	}
	// A changed link value is part of the static fingerprint: new entry.
	set.Network.Links[0].BandwidthKbps = 100
	g3, err := c.BuildFromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatal("changed network profile must produce a fresh graph")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

func TestOverlayGenerationAdvances(t *testing.T) {
	net := cacheNet()
	g0 := net.Generation()
	if err := net.SetBandwidth("sender", "p1", 42); err != nil {
		t.Fatal(err)
	}
	if g1 := net.Generation(); g1 <= g0 {
		t.Fatalf("generation %d should advance past %d on mutation", g1, g0)
	}
}

// threeProxyNet is a three-proxy overlay: two parallel sender uplinks and
// a routed pair (sender→p3 has no direct link, so its edge is annotated
// from a widest path).
func threeProxyNet() *overlay.Network {
	net := overlay.New()
	net.AddLink("sender", "p1", 2000, 5, 0)
	net.AddLink("sender", "p2", 3000, 5, 0)
	net.AddLink("p1", "p3", 1800, 5, 0)
	net.AddLink("p2", "p3", 2500, 5, 0)
	net.AddLink("p1", "recv", 1500, 5, 0)
	net.AddLink("p2", "recv", 1600, 5, 0)
	net.AddLink("p3", "recv", 1400, 5, 0)
	return net
}

// threeProxyInput deploys one converter per proxy so the graph has an
// edge over every link plus the routed sender→p3 pair.
func threeProxyInput(net *overlay.Network) Input {
	svc := func(id, host string) *service.Service {
		return &service.Service{
			ID:      service.ID(id),
			Inputs:  []media.Format{media.Opaque(1)},
			Outputs: []media.Format{media.Opaque(2)},
			Host:    host,
		}
	}
	in := cacheInput(net)
	in.Services = []*service.Service{svc("s1", "p1"), svc("s2", "p2"), svc("s3", "p3")}
	return in
}

// edgeQoS flattens a graph's per-edge QoS annotations.
func edgeQoS(g *Graph) map[string][3]float64 {
	out := make(map[string][3]float64)
	for _, id := range g.NodeIDs() {
		for _, e := range g.Out(id) {
			out[fmt.Sprintf("%s->%s/%s", e.From, e.To, e.Format)] = [3]float64{e.BandwidthKbps, e.DelayMs, e.LossRate}
		}
	}
	return out
}

// TestCacheRefreshMatchesColdBuild is the ground truth for in-place
// refresh: after value-only changes — new capacities, a new delay, and
// a reservation hold on a link nothing else touched — the refreshed
// graph carries exactly the annotations a cold build of the same
// overlay gives, on direct and routed edges alike.
func TestCacheRefreshMatchesColdBuild(t *testing.T) {
	net := threeProxyNet()
	c := NewCache(0)
	in := threeProxyInput(net)
	g, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetBandwidth("sender", "p1", 900); err != nil {
		t.Fatal(err)
	}
	if err := net.SetBandwidth("p2", "p3", 1100); err != nil {
		t.Fatal(err)
	}
	if err := net.SetDelay("p3", "recv", 12); err != nil {
		t.Fatal(err)
	}
	if err := net.ReserveChain([]overlay.Reservation{{From: "p2", To: "recv", Kbps: 400}}); err != nil {
		t.Fatal(err)
	}
	refreshed, outcome, err := c.BuildKeyed(InputKey(&in), in)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeRefresh || refreshed != g {
		t.Fatalf("outcome = %s (same graph %v), want an in-place %s", outcome, refreshed == g, OutcomeRefresh)
	}
	cold, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	want, got := edgeQoS(cold), edgeQoS(refreshed)
	if len(want) != len(got) {
		t.Fatalf("refreshed graph has %d edges, cold build has %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("edge %s: refreshed %v, cold build %v", k, got[k], w)
		}
	}
	if st := c.Stats(); st.Refreshes != 1 || st.Misses != 1 || st.Repairs != 0 {
		t.Fatalf("stats = %+v, want 1 refresh, 1 miss, 0 repairs", st)
	}
}

// TestCacheRefreshConcurrentWithBuild drives refreshes and rebuilds from
// many goroutines against one cache while the network mutates — the
// -race proof for the in-place refresh the storm controller leans on.
// (The planner still serializes selection against refresh per the
// cache contract; the cache itself must be internally race-free.)
func TestCacheRefreshConcurrentWithBuild(t *testing.T) {
	net := threeProxyNet()
	c := NewCache(0)
	in := threeProxyInput(net)
	if _, err := c.Build(in); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	mutatorDone := make(chan struct{})
	// Mutator: bandwidth wobbles on two links until the readers finish;
	// every tenth step takes a link to zero and back, flipping masks.
	go func() {
		defer close(mutatorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = net.SetBandwidth("sender", "p1", 1000+float64(i%7)*100)
			_ = net.SetBandwidth("p2", "p3", float64(i%10)*150)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, _, err := c.BuildKeyed(InputKey(&in), in); err != nil {
					t.Errorf("BuildKeyed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-mutatorDone
}

// TestCacheWarmPathsAllocateNothing: with the key held by the caller, a
// warm hit, a value-only refresh — a new signature hashed from the live
// overlay, every edge re-annotated in place — and a zero-crossing flip,
// which masks and unmasks an edge and relinks the adjacency, allocate
// nothing once warm.
func TestCacheWarmPathsAllocateNothing(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	key := InputKey(&in)
	if _, _, err := c.BuildKeyed(key, in); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(200, func() {
		if _, outcome, err := c.BuildKeyed(key, in); err != nil || outcome != OutcomeHit {
			t.Fatalf("warm lookup = %s, %v; want %s", outcome, err, OutcomeHit)
		}
	})
	// flip sets the sender uplink and looks the graph up, which must
	// refresh it in place with wantOut live sender edges.
	flip := func(kbps float64, wantOut int) {
		if err := net.SetBandwidth("sender", "p1", kbps); err != nil {
			t.Fatal(err)
		}
		g, outcome, err := c.BuildKeyed(key, in)
		if err != nil || outcome != OutcomeRefresh {
			t.Fatalf("lookup after a bandwidth change = %s, %v; want %s", outcome, err, OutcomeRefresh)
		}
		if n := len(g.Out(SenderID)); n != wantOut {
			t.Fatalf("at %v kbps the sender has %d live edges, want %d", kbps, n, wantOut)
		}
	}
	kbps := 2000.0
	refresh := testing.AllocsPerRun(200, func() {
		kbps = 3000 - kbps // 1000 ↔ 2000: values move, no mask flips
		flip(kbps, 1)
	})
	zero := testing.AllocsPerRun(200, func() {
		flip(0, 0)    // the uplink crosses zero: the edge is masked
		flip(1000, 1) // and comes back
	})
	if hit != 0 || refresh != 0 || zero != 0 {
		t.Fatalf("allocs per lookup: hit %.1f, value-only refresh %.1f, zero-crossing flip %.1f; want 0, 0 and 0", hit, refresh, zero)
	}
}
