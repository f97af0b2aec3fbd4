package storm_test

import (
	"fmt"
	"slices"
	"testing"

	"qoschain/internal/overlay"
	"qoschain/internal/storm"
)

// BenchmarkStormCollapse times one collapse storm over the fault-storm
// workload's shape: 4 regions × 8 classes (one per floor) × 32 reserving
// members. Each operation collapses the first-hop links of one region's
// class chains (regions in turn) to 1e-4 of their capacity and runs the
// storm that re-plans the region's 8 classes and moves their 256
// members to new chains; restoring the links and the restore storm run
// off the clock.
//
//	make bench-storm
func BenchmarkStormCollapse(b *testing.B) {
	const regions, classes, members = 4, 8, 32
	var regs []storm.Region
	for i := 0; i < regions; i++ {
		regs = append(regs, buildRegion(fmt.Sprintf("r%d", i), 1e6))
	}
	c, err := storm.Open(storm.Config{}, regs)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	probes := make([][]string, regions) // one member per class
	for i, reg := range regs {
		for k := 0; k < classes; k++ {
			cls, err := c.AddClass(classSpec(reg.Name, 30, 0.1*float64(k+1)))
			if err != nil {
				b.Fatalf("AddClass: %v", err)
			}
			ss, err := c.Attach(cls.Key(), members)
			if err != nil {
				b.Fatalf("Attach: %v", err)
			}
			probes[i] = append(probes[i], ss[0].ID)
		}
	}
	// firstHops returns the distinct first-hop links region r's class
	// chains ride now, with their capacities.
	firstHops := func(r int) (hops []overlay.LinkRef, capacity []float64) {
		for _, id := range probes[r] {
			v, _ := c.MemberState(id)
			hop := overlay.LinkRef{From: v.Held[0].From, To: v.Held[0].To}
			if !slices.Contains(hops, hop) {
				kbps, _, _ := regs[r].Net.Capacity(hop.From, hop.To)
				hops, capacity = append(hops, hop), append(capacity, kbps)
			}
		}
		return hops, capacity
	}
	setHops := func(r int, hops []overlay.LinkRef, kbps []float64, factor float64) *storm.Report {
		for k, hop := range hops {
			if err := regs[r].Net.SetBandwidth(hop.From, hop.To, kbps[k]*factor); err != nil {
				b.Fatalf("SetBandwidth: %v", err)
			}
		}
		if err := c.NotePending(regs[r].Name, hops); err != nil {
			b.Fatalf("NotePending: %v", err)
		}
		rep, _, err := c.Storm()
		if err != nil {
			b.Fatalf("Storm: %v", err)
		}
		return rep
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % regions
		b.StopTimer()
		hops, capacity := firstHops(r)
		b.StartTimer()
		rep := setHops(r, hops, capacity, 1e-4)
		b.StopTimer()
		if rep == nil || rep.AffectedClasses != classes || rep.Replanned != classes*members {
			b.Fatalf("collapse storm = %+v; want %d classes of %d members re-planned", rep, classes, members)
		}
		setHops(r, hops, capacity, 1)
		b.StartTimer()
	}
}
