package sim

// chaos.go is the seeded chaos harness (EXPERIMENTS.md EXT-J): one
// reserving Figure 6 session on an in-memory session.Manager rides a
// seeded schedule of host crashes, link flaps, bandwidth collapses,
// service churn and loss spikes. A fault.Injector plays the schedule
// over a private copy of the deployment; its only job is to report the
// faults each step fires, scheduled and auto-recovered alike. Each
// fired fault reaches the session through Managed.ApplyFault — the path
// POST /v1/sessions/{id}/fault takes — and each step ends with one
// manual reevaluate, so every re-composition is the manager's storm
// controller re-running Select over the current network.
//
// The report measures what graceful degradation is for:
//
//   - availability: the steps on which the session is not degraded (its
//     class holds a chain at or above the floor);
//   - zero leaked kbps: the region's reserved bandwidth equals what the
//     session holds;
//   - equivalence: with StormVerify on, every plan is re-derived by a
//     naive per-session Select and must match the class chain.

import (
	"errors"
	"fmt"
	"math"

	"qoschain/internal/core"
	"qoschain/internal/fault"
	"qoschain/internal/metrics"
	"qoschain/internal/paperexample"
	"qoschain/internal/session"
)

// ChaosSpec configures one chaos run.
type ChaosSpec struct {
	// Seed derives the fault schedule.
	Seed int64
	// Steps is the virtual-time horizon (default 40).
	Steps int
}

// ChaosStep is the session's state after one step.
type ChaosStep struct {
	Step         int     `json:"step"`
	Chain        string  `json:"chain"`
	Satisfaction float64 `json:"satisfaction"`
	// Recomposed reports a chain swap since the previous step.
	Recomposed bool `json:"recomposed,omitempty"`
	Degraded   bool `json:"degraded,omitempty"`
	// Faults are the faults fired this step, in firing order.
	Faults []fault.Fault `json:"faults,omitempty"`
}

// ChaosReport is one run's outcome.
type ChaosReport struct {
	Seed            int64 `json:"seed"`
	Steps           int   `json:"steps"`
	ScheduledFaults int   `json:"scheduledFaults"`
	// Initial is the session at creation (step 0); Timeline holds one
	// entry per step.
	Initial  ChaosStep   `json:"initial"`
	Timeline []ChaosStep `json:"timeline"`
	// Healthy counts the steps the session ended not degraded. Outages
	// counts maximal runs of degraded steps, the longest LongestOutage
	// steps long.
	Healthy       int `json:"healthy"`
	Outages       int `json:"outages"`
	LongestOutage int `json:"longestOutage"`
	// Recompositions is the session's chain-swap count when the run
	// ended (State().Recompositions).
	Recompositions int `json:"recompositions"`
	// Storms counts the controller's storms; NaiveChecks/Mismatches
	// total their naive per-session equivalence checks.
	Storms      int `json:"storms"`
	NaiveChecks int `json:"naiveChecks"`
	Mismatches  int `json:"mismatches"`
	// LeakKbps is the largest gap, over every step, between the
	// region's reserved bandwidth and the session's hold (must be 0).
	LeakKbps float64 `json:"leakKbps"`
	// Err is the first fault or reevaluate the manager refused; the run
	// stops there.
	Err string `json:"err,omitempty"`
	// Counters holds the manager's storm.*, qos.* and
	// failover.reevaluate_* metrics.
	Counters *metrics.Counters `json:"-"`
}

// OK reports whether the run met the chaos contract: every fault and
// reevaluate applied, no bandwidth leaked, and every storm's plan
// matched the naive per-session Select.
func (r *ChaosReport) OK() bool {
	return r.Err == "" && r.LeakKbps == 0 && r.Mismatches == 0
}

// RunChaos executes one chaos run end to end.
func RunChaos(spec ChaosSpec) (*ChaosReport, error) {
	if spec.Steps <= 0 {
		spec.Steps = 40
	}
	rep := &ChaosReport{Seed: spec.Seed, Steps: spec.Steps, Counters: metrics.NewCounters()}

	m, err := session.NewManager(session.ManagerConfig{
		StormVerify: true,
		Counters:    rep.Counters,
	})
	if err != nil {
		return rep, err
	}
	ms, err := m.Create(session.CreateSpec{Set: Figure6Set(), Floor: 0.3, Reserve: true})
	if err != nil {
		return rep, fmt.Errorf("sim: chaos session: %w", err)
	}
	ctrl := m.StormController()

	net := paperexample.Table1Network()
	svcs := paperexample.Table1Services(true)
	schedule := fault.RandomSchedule(fault.ChaosSpec{
		Seed:                  spec.Seed,
		Steps:                 spec.Steps,
		HostCrashRate:         0.15,
		LinkFlapRate:          0.10,
		BandwidthCollapseRate: 0.10,
		ServiceChurnRate:      0.10,
		LossSpikeRate:         0.05,
		Protected:             []string{"sender", "receiver"},
	}, net, svcs)
	rep.ScheduledFaults = len(schedule)
	inj, err := fault.NewInjector(net, fault.NewServiceSet(svcs), schedule)
	if err != nil {
		return rep, err
	}

	// tally folds in the naive checks of the storm the last command ran,
	// if it ran one.
	tally := func() {
		st := ctrl.Status()
		if st.Storms > rep.Storms && st.LastStorm != nil {
			rep.NaiveChecks += st.LastStorm.NaiveChecks
			rep.Mismatches += st.LastStorm.Mismatches
		}
		rep.Storms = st.Storms
	}
	observe := func(step int) ChaosStep {
		v, _ := ctrl.MemberState(ms.ID())
		rep.Recompositions = v.Swaps
		return ChaosStep{
			Step:         step,
			Chain:        core.PathString(v.Path),
			Satisfaction: v.Satisfaction,
			Degraded:     v.Degraded,
		}
	}
	tally()
	rep.Initial = observe(0)

	outage := 0
	for t := 1; t <= spec.Steps; t++ {
		fired := inj.Step()
		for _, f := range fired {
			if err := ms.ApplyFault(f); err != nil {
				rep.Err = fmt.Sprintf("%s: %v", f, err)
				return rep, nil
			}
			tally()
		}
		changed, evalErr, logErr := ms.ReevaluateReason(session.ReevalManual)
		if err := errors.Join(evalErr, logErr); err != nil {
			rep.Err = fmt.Sprintf("t=%d reevaluate: %v", t, err)
			return rep, nil
		}
		tally()
		step := observe(t)
		step.Recomposed = changed
		step.Faults = fired
		rep.Timeline = append(rep.Timeline, step)
		if step.Degraded {
			if outage == 0 {
				rep.Outages++
			}
			outage++
			rep.LongestOutage = max(rep.LongestOutage, outage)
		} else {
			rep.Healthy++
			outage = 0
		}
		rep.LeakKbps = max(rep.LeakKbps, math.Abs(regionLeak(ctrl)))
	}
	return rep, nil
}
