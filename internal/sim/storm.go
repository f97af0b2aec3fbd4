package sim

// storm.go is the backbone-event survival harness (EXPERIMENTS.md
// EXT-O): a scaled Figure 6 deployment — several regions, each a
// Table 1 network resized to hold tens of thousands of sessions —
// grouped into equivalence classes under a storm controller. A seeded
// correlated backbone fault (fault.RandomSchedule with BackboneRate)
// collapses a region's links; the fired faults are reduced to their
// changed-link set and absorbed by one Storm() call.
//
// The harness measures what the storm controller is for:
//
//   - Select calls per affected session (must be ≪ 1: one plan per
//     equivalence class, not per session);
//   - zero leaked kbps: after recovery every region's reserved
//     bandwidth is exactly the sum of the member holds;
//   - equivalence: with Verify on, every member's chain is re-derived
//     by the naive per-session Select on a cold graph build of the
//     overlay the class planned against and must match the class chain
//     byte-for-byte.

import (
	"fmt"
	"math"

	"qoschain/internal/fault"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
)

// StormSpec configures one backbone-event scenario.
type StormSpec struct {
	// Seed drives the backbone fault draw.
	Seed int64
	// Sessions is the total session count across all regions (default
	// 100000).
	Sessions int
	// Regions is how many Table 1 deployments run side by side
	// (default 4).
	Regions int
	// ClassesPerRegion is how many equivalence classes each region's
	// sessions split into (default 8).
	ClassesPerRegion int
	// Verify enables the naive per-session equivalence check (default
	// off; the pinned run turns it on).
	Verify bool
	// Counters, when set, receives the storm.* metrics.
	Counters *metrics.Counters
}

// StormReport is the scenario outcome.
type StormReport struct {
	Seed             int64   `json:"seed"`
	Regions          int     `json:"regions"`
	Classes          int     `json:"classes"`
	Sessions         int     `json:"sessions"`
	SetupSelects     int     `json:"setupSelects"`
	BackboneLinks    int     `json:"backboneLinks"`
	AffectedClasses  int     `json:"affectedClasses"`
	AffectedSessions int     `json:"affectedSessions"`
	SelectCalls      int     `json:"selectCalls"`
	SelectsPerAff    float64 `json:"selectsPerAffectedSession"`
	Replanned        int     `json:"replanned"`
	UnchangedClasses int     `json:"unchangedClasses"`
	DegradedSessions int     `json:"degradedSessions"`
	SwapFailed       int     `json:"swapFailed"`
	NaiveChecks      int     `json:"naiveChecks,omitempty"`
	Mismatches       int     `json:"mismatches"`
	RecoveryMs       float64 `json:"recoveryMs"`
	LeakKbps         float64 `json:"leakKbps"`
	CacheRefreshes   uint64  `json:"cacheRefreshes"`
	CacheRebuilds    uint64  `json:"cacheRebuilds"`
	Err              string  `json:"err,omitempty"`
}

// OK reports whether the scenario met the storm contract: a backbone
// event actually hit sessions, re-composition cost was sub-linear in
// the affected population (≤ 0.05 Selects per affected session), no
// bandwidth leaked, and — when verified — the class chains matched the
// naive per-session plans exactly.
func (r *StormReport) OK() bool {
	return r.Err == "" && r.AffectedSessions > 0 && r.Mismatches == 0 &&
		r.LeakKbps == 0 && r.SelectsPerAff <= 0.05
}

// stormRegion wires one scaled Table 1 deployment.
type stormRegion struct {
	name string
	net  *overlay.Network
	spec storm.Region
}

// buildStormRegion constructs one region: a Table 1 topology whose
// every link is resized to hold the region's session population with
// ~15% headroom, so the pre-storm deployment is comfortably admitted
// and the backbone collapse (factor 0.35–0.65) genuinely
// over-subscribes it.
func buildStormRegion(name string, sessions int) stormRegion {
	net := paperexample.Table1Network()
	// Uniform capacity: population × worst-case per-session bitrate
	// (30 fps × 100 kbps) × 1.15 headroom.
	capacity := float64(sessions)*3000*1.15 + 3000
	for _, node := range net.Nodes() {
		for _, ref := range net.LinksOf(node) {
			_ = net.SetBandwidth(ref.From, ref.To, capacity)
		}
	}
	return stormRegion{
		name: name,
		net:  net,
		spec: storm.Region{
			Name:         name,
			Net:          net,
			Services:     paperexample.Table1Services(true),
			SenderHost:   "sender",
			ReceiverHost: "receiver",
		},
	}
}

// classSpecs derives the region's equivalence classes: same content and
// device, user preferences sweeping the ideal frame rate 18..30 fps and
// the QoS floor 0.50..0.85 — distinct planner fingerprints over a
// shared deployment.
func classSpecs(region string, n int) []storm.ClassSpec {
	specs := make([]storm.ClassSpec, 0, n)
	for i := 0; i < n; i++ {
		ideal := 18 + float64(i%7)*2
		floor := 0.50 + float64(i%8)*0.05
		specs = append(specs, storm.ClassSpec{
			Region:  region,
			Content: *paperexample.Table1Content(),
			Device:  *paperexample.Table1Device(),
			User: profile.User{
				Name: fmt.Sprintf("%s-class-%d", region, i),
				Preferences: map[media.Param]profile.FuncSpec{
					media.ParamFrameRate: profile.LinearSpec(0, ideal),
				},
			},
			Floor: floor,
		})
	}
	return specs
}

// RunStorm executes one backbone-event scenario end to end.
func RunStorm(spec StormSpec) (*StormReport, error) {
	if spec.Sessions <= 0 {
		spec.Sessions = 100000
	}
	if spec.Regions <= 0 {
		spec.Regions = 4
	}
	if spec.ClassesPerRegion <= 0 {
		spec.ClassesPerRegion = 8
	}
	rep := &StormReport{Seed: spec.Seed, Regions: spec.Regions}

	perRegion := spec.Sessions / spec.Regions
	regions := make([]stormRegion, 0, spec.Regions)
	specs := make([]storm.ClassSpec, 0, spec.Regions*spec.ClassesPerRegion)
	for r := 0; r < spec.Regions; r++ {
		reg := buildStormRegion(fmt.Sprintf("region-%d", r), perRegion)
		regions = append(regions, reg)
		specs = append(specs, classSpecs(reg.name, spec.ClassesPerRegion)...)
	}

	regionSpecs := make([]storm.Region, len(regions))
	for i, reg := range regions {
		regionSpecs[i] = reg.spec
	}
	ctrl, err := storm.Open(storm.Config{
		Verify:    spec.Verify,
		Counters:  spec.Counters,
		CacheSize: 2 * len(specs),
	}, regionSpecs)
	if err != nil {
		return rep, fmt.Errorf("sim: storm controller: %w", err)
	}

	// Populate: one plan per class, then the members attach against it.
	perClass := spec.Sessions / len(specs)
	extra := spec.Sessions - perClass*len(specs)
	for i, cs := range specs {
		cls, err := ctrl.AddClass(cs)
		if err != nil {
			return rep, fmt.Errorf("sim: class %d: %w", i, err)
		}
		rep.SetupSelects++
		n := perClass
		if i < extra {
			n++
		}
		if n > 0 {
			if _, err := ctrl.Attach(cls.Key(), n); err != nil {
				return rep, fmt.Errorf("sim: attach %s: %w", cls.Key(), err)
			}
		}
	}
	rep.Classes = ctrl.Classes()
	rep.Sessions = ctrl.Sessions()
	if leak := auditLeak(ctrl, regions); leak != 0 {
		rep.LeakKbps = leak
		rep.Err = fmt.Sprintf("pre-storm leak of %.3f kbps", leak)
		return rep, nil
	}

	// The backbone event: a correlated multi-link bandwidth collapse in
	// each region, drawn by the seeded chaos scheduler. The sender is
	// the region's edge uplink cluster; every access link degrades
	// together under one fault group.
	for i, reg := range regions {
		schedule := fault.RandomSchedule(fault.ChaosSpec{
			Seed:         spec.Seed + int64(i),
			Steps:        1,
			BackboneRate: 1,
			Regions:      map[string]string{"sender": "edge"},
		}, reg.net, reg.spec.Services)
		inj, err := fault.NewInjector(reg.net, nil, schedule)
		if err != nil {
			return rep, fmt.Errorf("sim: injector %s: %w", reg.name, err)
		}
		fired := inj.Step()
		n, err := ctrl.OnFaults(reg.name, fired)
		if err != nil {
			return rep, fmt.Errorf("sim: reporting faults for %s: %w", reg.name, err)
		}
		rep.BackboneLinks += n
	}
	if rep.BackboneLinks == 0 {
		rep.Err = "backbone event produced no changed links"
		return rep, nil
	}

	stormRep, _, err := ctrl.Storm()
	if err != nil {
		return rep, fmt.Errorf("sim: storm: %w", err)
	}
	if stormRep == nil {
		rep.Err = "storm absorbed no pending links"
		return rep, nil
	}
	rep.AffectedClasses = stormRep.AffectedClasses
	rep.AffectedSessions = stormRep.AffectedSessions
	rep.SelectCalls = stormRep.SelectCalls
	rep.SelectsPerAff = stormRep.SelectPerSession
	rep.Replanned = stormRep.Replanned
	rep.UnchangedClasses = stormRep.Unchanged
	rep.DegradedSessions = stormRep.DegradedSessions
	rep.SwapFailed = stormRep.SwapFailed
	rep.NaiveChecks = stormRep.NaiveChecks
	rep.Mismatches = stormRep.Mismatches
	rep.RecoveryMs = stormRep.RecoveryMs
	rep.LeakKbps = auditLeak(ctrl, regions)
	stats := ctrl.CacheStats()
	rep.CacheRefreshes = stats.Refreshes
	rep.CacheRebuilds = stats.Misses
	if rep.LeakKbps != 0 {
		rep.Err = fmt.Sprintf("post-storm leak of %.3f kbps", rep.LeakKbps)
	}
	return rep, nil
}

// auditLeak compares each region's overlay-reserved total against the
// sum of the controller's member holds. Differences below the float
// noise floor (1e-6 relative) count as zero.
func auditLeak(ctrl *storm.Controller, regions []stormRegion) float64 {
	leak := 0.0
	for _, reg := range regions {
		held := ctrl.HeldKbps(reg.name)
		reserved := reg.net.TotalReservedKbps()
		d := reserved - held
		if math.Abs(d) <= 1e-6*math.Max(1, math.Max(held, reserved)) {
			continue
		}
		leak += d
	}
	return leak
}
