package storm

// qos.go is the controller's QoS SLO tracking: per-member satisfaction
// telemetry derived from every plan application. Unlike the storm.*
// counters (live-only, guarded by !replaying), the qos.* hooks fire on
// BOTH the live path and journal replay: the registry is in-memory and
// dies with the process, so a restarted primary rebuilds its SLO state
// from the WAL, and a follower replaying shipped records reports the
// same qos.* series as the primary that journaled them. The hooks write
// only to Config.Counters (the daemon-level registry) — never to any
// state that feeds Fingerprint — so SLO telemetry cannot perturb the
// byte-identity the crash and failover tests compare.

import "qoschain/internal/metrics"

// qosState is the controller's SLO bookkeeping (guarded by c.mu).
type qosState struct {
	burn *metrics.BurnWindow
}

// observe pushes one member observation and returns the windowed burn
// rate (fraction of recent observations below floor).
func (q *qosState) observe(belowFloor bool) float64 {
	if q.burn == nil {
		q.burn = metrics.NewBurnWindow(0)
	}
	return q.burn.Observe(belowFloor)
}

// qosApplyLocked records the SLO effect of one class plan application:
// one satisfaction observation per member, below-floor second and burn
// accounting, and a floor-breach count for every member that
// transitioned healthy→degraded. prev is the members' degraded flags
// captured before the plan mutated them. Called with c.mu held.
func (c *Controller) qosApplyLocked(cls *Class, prev []bool) {
	cc := c.cfg.Counters
	if cc == nil {
		return
	}
	sat := cls.Satisfaction()
	burn := 0.0
	for i, s := range cls.members {
		cc.Observe(metrics.SampleQoSSatisfaction, sat)
		burn = c.qos.observe(s.degraded)
		if s.degraded {
			cc.Inc(metrics.CounterQoSBelowFloorSeconds)
		}
		if i < len(prev) && !prev[i] && s.degraded {
			cc.Inc(metrics.CounterQoSFloorBreaches)
		}
	}
	if len(cls.members) > 0 {
		cc.SetGauge(metrics.GaugeQoSBurnRate, burn)
	}
	c.qosPublishLocked()
}

// qosMemberLocked records one member's attach/detach-time SLO state.
func (c *Controller) qosMemberLocked(s *Session, satisfaction float64) {
	cc := c.cfg.Counters
	if cc == nil {
		return
	}
	cc.Observe(metrics.SampleQoSSatisfaction, satisfaction)
	burn := c.qos.observe(s.degraded)
	if s.degraded {
		cc.Inc(metrics.CounterQoSBelowFloorSeconds)
		cc.Inc(metrics.CounterQoSFloorBreaches)
	}
	cc.SetGauge(metrics.GaugeQoSBurnRate, burn)
	c.qosPublishLocked()
}

// qosPublishLocked publishes the degraded-sessions gauge from the
// controller's tally of the members' flags — the flags are the
// journaled truth, so the gauge is identical after live execution and
// after replay.
func (c *Controller) qosPublishLocked() {
	c.cfg.Counters.SetGauge(metrics.GaugeQoSDegradedSessions, float64(c.degradedSessions))
}
