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

func TestCacheZeroCrossingRebuilds(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	g1, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Out(SenderID)) != 1 {
		t.Fatalf("expected one sender edge, got %d", len(g1.Out(SenderID)))
	}
	// Bandwidth hitting zero disconnects the host pair: topology is no
	// longer valid, the graph must be rebuilt without the edge.
	if err := net.SetBandwidth("sender", "p1", 0); err != nil {
		t.Fatal(err)
	}
	g2, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Fatal("connectivity change must rebuild, not refresh")
	}
	if len(g2.Out(SenderID)) != 0 {
		t.Fatalf("rebuilt graph should drop the disconnected edge, has %d", len(g2.Out(SenderID)))
	}
}

func TestCacheTopologyChangeRebuilds(t *testing.T) {
	net := cacheNet()
	c := NewCache(0)
	in := cacheInput(net)
	g1, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	net.RemoveLink("p1", "recv")
	g2, err := c.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Fatal("link removal must rebuild the graph")
	}
}

func TestCacheLinkDownRebuilds(t *testing.T) {
	net := threeProxyNet()
	c := NewCache(0)
	in := threeProxyInput(net)
	if _, err := c.Build(in); err != nil {
		t.Fatal(err)
	}
	// A failed link leaves the snapshot, changing the connectivity
	// signature: the lookup must rebuild, never refresh in place.
	if err := net.FailLink("p1", "recv"); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := c.BuildEx(in)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeMiss {
		t.Fatalf("outcome = %s after a link failed, want %s (full rebuild)", outcome, OutcomeMiss)
	}
	if st := c.Stats(); st.Refreshes != 0 {
		t.Fatalf("stats = %+v: a topology change must never count as a refresh", st)
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
	refreshed, outcome, err := c.BuildEx(in)
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
	// every tenth step takes a link to zero and back, forcing rebuilds.
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
				if _, _, err := c.BuildEx(in); err != nil {
					t.Errorf("BuildEx: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-mutatorDone
}
