package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Counters is the concurrency-safe sink instrumented code reports
// through — the reliability bookkeeping of the re-composition, admission,
// and durability paths. It is a thin facade over a Registry: counts
// go to counter series and Observe feeds bounded histogram series, so
// a long-lived daemon's metric memory stays constant (the old
// implementation appended every observation to a slice forever). A
// nil *Counters is a valid no-op sink, so instrumented code never
// needs to guard its calls.
type Counters struct {
	r *Registry
	// mirror, when non-nil, receives a copy of every write. Reads
	// always come from r, so a private sink stays deterministic while
	// the process-wide registry still sees the series (see Fanout).
	mirror *Counters
}

// Well-known counter names recorded per session re-evaluation.
// Samples (Observe) use the same namespace as counters (Inc/Add).
const (
	// CounterReevalPrefix prefixes the per-reason re-evaluation counters
	// below; the reason token ("manual", "fault", "storm") is appended,
	// so storm-driven re-plans are distinguishable from client requests
	// in traces and dashboards.
	CounterReevalPrefix = "failover.reevaluate_"
	// CounterReevalManual counts client- or driver-requested
	// re-evaluations.
	CounterReevalManual = CounterReevalPrefix + "manual"
	// CounterReevalFault counts re-evaluations forced by fault handling
	// (post-recovery reconciliation, dead-link sweeps).
	CounterReevalFault = CounterReevalPrefix + "fault"
	// CounterReevalStorm counts re-evaluations driven by the mass
	// re-composition storm controller.
	CounterReevalStorm = CounterReevalPrefix + "storm"
)

// Well-known counter and sample names recorded by the re-composition
// storm controller (internal/storm).
const (
	// CounterStormEvents counts storms executed (one per backbone event
	// absorbed).
	CounterStormEvents = "storm.events"
	// CounterStormClasses counts equivalence classes re-planned across
	// all storms.
	CounterStormClasses = "storm.classes"
	// CounterStormSessionsReplanned counts member sessions whose chain
	// hold was swapped by a storm fan-out.
	CounterStormSessionsReplanned = "storm.sessions_replanned"
	// CounterStormSelectCalls counts Select invocations storms spent —
	// the numerator of the Select-calls-per-affected-session ratio that
	// proves class planning amortizes.
	CounterStormSelectCalls = "storm.select_calls"
	// CounterStormDegraded counts member sessions left below their QoS
	// floor after a storm (no above-floor chain existed for their class).
	CounterStormDegraded = "storm.sessions_degraded"
	// SampleStormRecoveryMs observes wall-clock milliseconds from storm
	// start to the last fan-out.
	SampleStormRecoveryMs = "storm.recovery_ms"
	// GaugeStormClassesAttached gauges how many equivalence classes
	// currently have at least one attached member session.
	GaugeStormClassesAttached = "storm.classes_attached"
	// SampleStormMembersPerClass observes a class's member count at each
	// attach — the class-skew distribution operators read off /metrics.
	SampleStormMembersPerClass = "storm.members_per_class"
)

// Well-known counter, gauge, and sample names recorded by the QoS SLO
// tracker: the continuous per-session satisfaction telemetry behind the
// paper's above-floor promise. Every write is symmetric between live
// execution and journal replay, so a promoted replica's registry
// reports the same SLO state its primary accumulated.
const (
	// CounterQoSBelowFloorSeconds accumulates one virtual second per
	// below-floor observation of a session — the raw "time below floor"
	// an SLO burn is computed from.
	CounterQoSBelowFloorSeconds = "qos.below_floor_seconds"
	// CounterQoSFloorBreaches counts healthy→below-floor transitions
	// (degradation episodes, not time spent degraded).
	CounterQoSFloorBreaches = "qos.floor_breaches"
	// GaugeQoSDegradedSessions gauges how many sessions currently sit
	// below their satisfaction floor.
	GaugeQoSDegradedSessions = "qos.degraded_sessions"
	// GaugeQoSBurnRate gauges the below-floor fraction of the last
	// qosBurnWindow satisfaction observations — a windowed burn rate
	// that reacts faster than the lifetime counters.
	GaugeQoSBurnRate = "qos.burn_rate"
	// SampleQoSSatisfaction observes every session satisfaction value
	// recorded at a composition, re-plan, or storm fan-out.
	SampleQoSSatisfaction = "qos.satisfaction"
)

// Well-known counter and sample names recorded by the admission layer
// (internal/admission and the bandwidth-reserving session path).
const (
	// CounterAdmissionAdmitted counts requests that obtained a
	// concurrency slot (directly or after queueing).
	CounterAdmissionAdmitted = "admission.admitted"
	// CounterAdmissionQueued counts requests that had to wait in the
	// limiter's FIFO queue before a decision.
	CounterAdmissionQueued = "admission.queued"
	// CounterAdmissionShedQueueFull counts requests shed on arrival
	// because the wait queue was full.
	CounterAdmissionShedQueueFull = "admission.shed_queue_full"
	// CounterAdmissionShedExpired counts requests shed because their
	// deadline expired (or their caller gave up) while queued.
	CounterAdmissionShedExpired = "admission.shed_deadline"
	// CounterAdmissionRateLimited counts requests refused by a
	// client's token bucket.
	CounterAdmissionRateLimited = "admission.rate_limited"
	// CounterCapacityRejected counts compositions refused before
	// activation because their chain would oversubscribe reserved
	// overlay bandwidth.
	CounterCapacityRejected = "admission.capacity_rejected"
	// SampleReservedKbps observes the per-link bandwidth each admitted
	// chain reserved.
	SampleReservedKbps = "admission.reserved_kbps"
)

// Well-known counter names recorded by the durability layer
// (internal/journal and the persistent session manager's recovery path).
const (
	// CounterJournalAppends counts records appended to the write-ahead
	// journal.
	CounterJournalAppends = "journal.appends"
	// CounterJournalSyncs counts group-commit fsyncs (one per batch of
	// appends, not one per record).
	CounterJournalSyncs = "journal.syncs"
	// CounterJournalSnapshots counts compacting snapshots published.
	CounterJournalSnapshots = "journal.snapshots"
	// CounterJournalReplayed counts journal records replayed at startup.
	CounterJournalReplayed = "journal.replayed"
	// CounterJournalTruncatedBytes accumulates torn-tail bytes recovery
	// had to truncate.
	CounterJournalTruncatedBytes = "journal.truncated_bytes"
	// CounterRecoverySessions counts sessions rebuilt from the snapshot
	// and journal at startup.
	CounterRecoverySessions = "recovery.sessions"
	// CounterRecoveryErrors counts journaled events that failed to
	// replay (skipped, with the session state left at its last good
	// point).
	CounterRecoveryErrors = "recovery.errors"
	// CounterRecoveryReconciled counts recovered sessions whose chain or
	// bandwidth holds no longer matched the live overlay and were pushed
	// through failover re-composition.
	CounterRecoveryReconciled = "recovery.reconciled"
	// SampleRecoveryReleasedKbps observes bandwidth released during
	// post-recovery reconciliation (holds whose links died).
	SampleRecoveryReleasedKbps = "recovery.released_kbps"
)

// Well-known counter and sample names recorded by the replicated
// composition tier (internal/cluster): WAL shipping between replicas
// and node-loss failover.
const (
	// CounterReplicationShipBatches counts ship batches a primary sent
	// that its follower verified and acked.
	CounterReplicationShipBatches = "replication.ship_batches"
	// CounterReplicationShippedRecords counts journal records shipped
	// and acked.
	CounterReplicationShippedRecords = "replication.shipped_records"
	// CounterReplicationShipRejected counts batches a follower rejected
	// (chain mismatch, offset mismatch, or a fenced source).
	CounterReplicationShipRejected = "replication.ship_rejected"
	// CounterReplicationSnapshotShips counts catch-ups that fell back to
	// shipping a full snapshot because the suffix was compacted away.
	CounterReplicationSnapshotShips = "replication.snapshot_ships"
	// CounterReplicationApplied counts replicated records a follower
	// appended and applied to its replica state machine.
	CounterReplicationApplied = "replication.applied_records"
	// SampleReplicationLag observes the primary's view of its follower's
	// lag (records appended locally but not yet acked) at each ship.
	SampleReplicationLag = "replication.lag_records"
	// CounterClusterPromotions counts followers promoted after a node's
	// membership lease expired.
	CounterClusterPromotions = "cluster.promotions"
	// CounterClusterAdopted counts sessions adopted by promoted
	// followers.
	CounterClusterAdopted = "cluster.sessions_adopted"
	// SampleClusterRecoveryMs observes wall-clock milliseconds from
	// detecting a dead node to its sessions being served by the
	// follower.
	SampleClusterRecoveryMs = "cluster.recovery_ms"
)

// Well-known counter and sample names recorded by the data plane
// (internal/pipeline's batched streaming executor). Per-run totals are
// folded in once when a chain finishes, so the per-frame hot path never
// touches the sink.
const (
	// CounterPipelineFramesIn counts source frames fed into chains.
	CounterPipelineFramesIn = "pipeline.frames_in"
	// CounterPipelineFramesOut counts frames delivered to receivers.
	CounterPipelineFramesOut = "pipeline.frames_out"
	// CounterPipelineBytesOut accumulates delivered payload bytes.
	CounterPipelineBytesOut = "pipeline.bytes_out"
	// CounterPipelineDropped counts frames dropped by any chain element
	// (shaping decimation, link loss draws, token-bucket overflow).
	CounterPipelineDropped = "pipeline.frames_dropped"
	// CounterPipelineBatches counts delivered frame batches.
	CounterPipelineBatches = "pipeline.batches"
	// CounterPipelineChains counts chain runs that finished (drained,
	// failed, or canceled).
	CounterPipelineChains = "pipeline.chains"
	// CounterPipelineFailures counts chain runs that ended in a typed
	// stage failure.
	CounterPipelineFailures = "pipeline.stage_failures"
	// SamplePipelineBatchOccupancy observes the mean delivered-batch
	// fill fraction of each finished run (1.0 = every batch full).
	SamplePipelineBatchOccupancy = "pipeline.batch_occupancy"
	// SamplePipelineQueueDepth observes the executor's run-queue depth
	// each time a worker picks up a chain.
	SamplePipelineQueueDepth = "pipeline.queue_depth"
)

// NewCounters returns an empty counter set backed by its own private
// registry.
func NewCounters() *Counters {
	return &Counters{r: NewRegistry()}
}

// CountersOn returns a Counters facade that records into an existing
// registry, so legacy *Counters call sites and registry-native code
// share one store. A nil registry yields a nil (no-op) sink.
func CountersOn(r *Registry) *Counters {
	if r == nil {
		return nil
	}
	return &Counters{r: r}
}

// Fanout returns a sink that writes through to both primary and
// mirror but reads (Get/Sample/Snapshot/Render) only from primary.
// Only the storm-cluster harness (internal/sim) uses it: each node
// writes to the run's shared sink, which the report reads, and to the
// node's own registry, which that node's /metrics serves.
func Fanout(primary, mirror *Counters) *Counters {
	if primary == nil {
		return mirror
	}
	if mirror == nil {
		return primary
	}
	return &Counters{r: primary.r, mirror: mirror}
}

// Registry exposes the backing registry (nil for a nil sink).
func (c *Counters) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.r
}

// Inc increments a named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add increments a named counter by n.
func (c *Counters) Add(name string, n int64) {
	if c == nil {
		return
	}
	c.r.Add(name, n)
	c.mirror.Add(name, n)
}

// SetGauge sets a named gauge to v.
func (c *Counters) SetGauge(name string, v float64) {
	if c == nil {
		return
	}
	c.r.SetGauge(name, v)
	c.mirror.SetGauge(name, v)
}

// Gauge returns a gauge's value (0 for unknown names or a nil receiver).
func (c *Counters) Gauge(name string) float64 {
	if c == nil {
		return 0
	}
	return c.r.GaugeValue(name)
}

// Get returns a counter's value (0 for unknown names or a nil receiver).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	return c.r.CounterValue(name)
}

// Observe records a value into a named histogram series. Unlike the
// pre-registry implementation this is bounded: aggregate stats cover
// every observation, but only the most recent SampleWindow raw values
// are retained.
func (c *Counters) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.r.Observe(name, v)
	c.mirror.Observe(name, v)
}

// Sample returns a copy of the retained raw observations of a series,
// oldest first — at most SampleWindow values (see Observe).
func (c *Counters) Sample(name string) []float64 {
	if c == nil {
		return nil
	}
	return c.r.Window(name)
}

// SampleSummary summarizes a named series. Count, mean, std, min, and
// max are exact over the full stream; quantiles are exact up to
// SampleWindow observations and bucket-interpolated beyond.
func (c *Counters) SampleSummary(name string) Summary {
	if c == nil {
		return Summary{}
	}
	return c.r.SampleSummary(name)
}

// Snapshot returns every counter value, keyed by rendered series name.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	return c.r.CounterMap()
}

// Render writes the counters (sorted by name) and one summary line per
// histogram series. Histograms named *_ms time wall-clock work and
// differ from run to run, so they come last, after a "-- wall-clock --"
// header: everything above it is byte-comparable across runs of a
// seeded harness.
func (c *Counters) Render(w io.Writer) {
	if c == nil {
		return
	}
	// Snapshot is already sorted by (name, labels).
	snap := c.r.Snapshot()
	for _, p := range snap.Counters {
		fmt.Fprintf(w, "%-28s %d\n", seriesKey(p.Name, p.Labels), p.Value)
	}
	var wall []HistPoint
	for _, h := range snap.Hists {
		if strings.HasSuffix(h.Name, "_ms") {
			wall = append(wall, h)
			continue
		}
		c.renderHist(w, h)
	}
	if len(wall) == 0 {
		return
	}
	fmt.Fprintln(w, "\n-- wall-clock --")
	for _, h := range wall {
		c.renderHist(w, h)
	}
}

// renderHist writes one histogram series' summary line.
func (c *Counters) renderHist(w io.Writer, h HistPoint) {
	key := seriesKey(h.Name, h.Labels)
	s := c.r.summaryByKey(key)
	fmt.Fprintf(w, "%-28s n=%d mean=%.2f p50=%.2f max=%.2f\n", key, s.Count, s.Mean, s.P50, s.Max)
}
