package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Well-known series names recorded by the observability layer itself
// (PR 5). Histogram names end in a unit suffix; label keys are noted
// next to each name.
const (
	// HistComposeLatencyMs observes end-to-end compose request latency,
	// labeled outcome="ok|no_chain|aborted|shed|error".
	HistComposeLatencyMs = "compose.latency_ms"
	// CounterHTTPRequests counts served HTTP requests, labeled
	// code="200"... .
	CounterHTTPRequests = "http.requests"
	// HistHTTPLatencyMs observes per-request wall time, labeled
	// code="200"... .
	HistHTTPLatencyMs = "http.latency_ms"
	// CounterTracesCompleted counts finished request traces.
	CounterTracesCompleted = "trace.completed"
	// CounterTraceSpansDropped counts spans discarded because a trace
	// hit its span cap.
	CounterTraceSpansDropped = "trace.spans_dropped"
	// HistQueueWaitMs observes how long queued requests waited for an
	// admission slot (measured on the limiter's injected clock).
	HistQueueWaitMs = "admission.queue_wait_ms"
	// HistJournalAppendMs / HistJournalFsyncMs observe write-ahead log
	// append and group-commit fsync latency.
	HistJournalAppendMs = "journal.append_ms"
	HistJournalFsyncMs  = "journal.fsync_ms"
	// HistSelectRounds observes Bellman-Ford rounds per selection.
	HistSelectRounds = "compose.select_rounds"
)

// RegisterWellKnown declares every well-known series at zero so a
// fresh daemon's /metrics already lists the full schema (counters at
// 0, histograms with empty buckets) before traffic arrives.
func RegisterWellKnown(r *Registry) {
	if r == nil {
		return
	}
	for _, name := range []string{
		CounterAdmissionAdmitted, CounterAdmissionQueued,
		CounterAdmissionShedQueueFull, CounterAdmissionShedExpired,
		CounterAdmissionRateLimited, CounterCapacityRejected,
		CounterJournalAppends, CounterJournalSyncs, CounterJournalSnapshots,
		CounterJournalReplayed, CounterJournalTruncatedBytes,
		CounterRecoverySessions, CounterRecoveryErrors, CounterRecoveryReconciled,
		CounterHTTPRequests, CounterTracesCompleted, CounterTraceSpansDropped,
		CounterPipelineFramesIn, CounterPipelineFramesOut,
		CounterPipelineBytesOut, CounterPipelineDropped,
		CounterPipelineBatches, CounterPipelineChains,
		CounterPipelineFailures,
		CounterReplicationShipBatches, CounterReplicationShippedRecords,
		CounterReplicationShipRejected, CounterReplicationSnapshotShips,
		CounterReplicationApplied,
		CounterClusterPromotions, CounterClusterAdopted,
		CounterReevalManual, CounterReevalFault, CounterReevalStorm,
		CounterStormEvents, CounterStormClasses,
		CounterStormSessionsReplanned, CounterStormSelectCalls,
		CounterStormDegraded,
		CounterQoSBelowFloorSeconds, CounterQoSFloorBreaches,
	} {
		r.Add(name, 0)
	}
	for _, name := range []string{
		GaugeStormClassesAttached,
		GaugeQoSDegradedSessions, GaugeQoSBurnRate,
	} {
		r.SetGauge(name, 0)
	}
	for _, name := range []string{
		SampleQoSSatisfaction,
		SampleReservedKbps,
		SampleRecoveryReleasedKbps,
		SampleReplicationLag, SampleClusterRecoveryMs,
		HistComposeLatencyMs, HistHTTPLatencyMs, HistQueueWaitMs,
		HistJournalAppendMs, HistJournalFsyncMs, HistSelectRounds,
		SamplePipelineBatchOccupancy, SamplePipelineQueueDepth,
		SampleStormRecoveryMs,
		SampleStormMembersPerClass,
	} {
		r.DeclareHist(name)
	}
}

// promName sanitizes a series name into the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*; the dots in our dotted names
// become underscores.
func promName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func promSeries(name, labels string) string {
	if labels == "" {
		return promName(name)
	}
	return promName(name) + "{" + labels + "}"
}

// mergeLabels appends extra to an already-rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus renders every series in the Prometheus text
// exposition format (version 0.0.4). Output is deterministic: series
// are sorted by name then label set, and a # TYPE line precedes each
// metric family exactly once.
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	lastType := ""
	typeLine := func(name, kind string) {
		if name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", promName(name), kind)
			lastType = name
		}
	}
	for _, c := range snap.Counters {
		typeLine(c.Name, "counter")
		fmt.Fprintf(w, "%s %d\n", promSeries(c.Name, c.Labels), c.Value)
	}
	lastType = ""
	for _, g := range snap.Gauges {
		typeLine(g.Name, "gauge")
		fmt.Fprintf(w, "%s %s\n", promSeries(g.Name, g.Labels), formatFloat(g.Value))
	}
	lastType = ""
	for _, h := range snap.Hists {
		typeLine(h.Name, "histogram")
		base := promName(h.Name)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			le := mergeLabels(h.Labels, `le="`+formatFloat(b)+`"`)
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, le, cum)
		}
		cum += h.Buckets[len(h.Bounds)]
		le := mergeLabels(h.Labels, `le="+Inf"`)
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, le, cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", base, braced(h.Labels), formatFloat(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", base, braced(h.Labels), h.Count)
	}
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format; mount it at
// GET /metrics. With ?format=json it serves the structured
// RegistrySnapshot instead — the machine-readable scrape payload the
// cluster federation endpoint and the experiment harness consume.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			_ = enc.Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exposes the registry's snapshot as a named expvar
// (JSON under /debug/vars alongside the runtime's memstats). Publishing
// the same name twice is a no-op instead of expvar's panic, so tests
// and restart-in-process callers are safe.
func PublishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] || expvar.Get(name) != nil {
		expvarPublished[name] = true
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
