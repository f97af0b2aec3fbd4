// Package httpapi exposes the composition framework over HTTP — the
// programmatic surface a deployment would put in front of the selection
// algorithm so that content servers and proxies can request chains
// without linking the library.
//
// Endpoints:
//
//	GET  /healthz            liveness probe
//	GET  /v1/formats         the well-known media formats
//	POST /v1/compose         profile.Set JSON -> composed chain JSON
//	POST /v1/composeBatch    {set, users[]} JSON -> one chain per user
//	POST /v1/graph           profile.Set JSON -> adaptation graph (DOT)
//	POST /v1/sessions        profile.Set JSON -> live failover session
//	GET  /v1/sessions[/{id}] session failover status (see sessions.go)
//	GET  /debug/storms       storm flight recorder (when a controller is wired)
//
// /v1/compose query parameters: trace=1 (include the per-round trace),
// prune=1 (prune the graph first), contact=<class> (per-contact
// preferences). /v1/composeBatch accepts the same parameters and plans
// every user of the request against one shared adaptation graph
// (core.SelectBatch) served from a per-handler graph cache.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"qoschain"
	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/session"
	"qoschain/internal/store"
	"qoschain/internal/storm"
)

// maxBody bounds request bodies (profile sets are small).
const maxBody = 4 << 20

// SessionBackend is the session store the API serves. A standalone
// daemon passes its *session.Manager; a cluster replica passes its
// cluster node, which fronts the local primary manager plus any
// promoted replicas — the HTTP veneer cannot tell the difference.
type SessionBackend interface {
	CreateCtx(ctx context.Context, spec session.CreateSpec) (*session.Managed, error)
	Get(id string) (*session.Managed, bool)
	List() []*session.Managed
	Delete(id string) (bool, error)
	Persistent() bool
	Recovery() *session.RecoveryReport
	LastSeq() uint64
}

// ReplicationStatus is the replication half of /healthz — what a load
// balancer gates on before routing sessions to a node.
type ReplicationStatus struct {
	// Role is "primary" (accepts creates; a cluster node), "solo"
	// (durable but unreplicated), or "memory" (no journal at all).
	Role string `json:"role"`
	// NodeID is the cluster node name (empty outside a cluster).
	NodeID string `json:"nodeId,omitempty"`
	// AppliedSeq is the applied journal offset of the node's own
	// primary state machine.
	AppliedSeq uint64 `json:"appliedSeq"`
	// Streams lists per-peer replication state: outbound shipping (this
	// node is the peer's primary) and inbound applies (this node
	// follows the peer).
	Streams []ReplicationStream `json:"streams,omitempty"`
}

// ReplicationStream is one peer's replication state.
type ReplicationStream struct {
	// Peer is the remote node ID.
	Peer string `json:"peer"`
	// Direction is "ship" (we stream our WAL to peer) or "apply" (we
	// hold a replica of peer's sessions).
	Direction string `json:"direction"`
	// AckedSeq is the last offset the follower acked (ship direction).
	AckedSeq uint64 `json:"ackedSeq,omitempty"`
	// AppliedSeq is our replica's applied offset (apply direction).
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
	// LagRecords is how many records the follower side is behind.
	LagRecords int64 `json:"lagRecords"`
	// Promoted marks an apply stream whose source died and whose
	// sessions this node adopted.
	Promoted bool `json:"promoted,omitempty"`
}

// ReplicationReporter is implemented by backends that replicate (the
// cluster node); /healthz includes its status when present.
type ReplicationReporter interface {
	ReplicationStatus() *ReplicationStatus
}

// StormReporter is implemented by the mass re-composition controller
// (internal/storm); when wired, /healthz carries its live status —
// class and session counts, pending changed links, whether a storm is
// executing, and the last storm's report — so operators can gate
// traffic on recovery state, not just liveness.
type StormReporter interface {
	Status() storm.Status
}

// FlightReporter is the flight-recorder half of the storm surface: a
// reporter that can also replay its recent storm timelines gains a
// GET /debug/storms endpoint serving them as JSON. The controller
// implements it; a bare Status() stub does not, and the endpoint is
// simply absent.
type FlightReporter interface {
	Flights() []storm.Flight
}

// Options configures the API handler.
type Options struct {
	// Sessions, when set, backs /v1/sessions with an existing (possibly
	// persistent) session manager or a cluster node. Nil uses a fresh
	// in-memory manager.
	Sessions SessionBackend
	// Store, when set, additionally serves /v1/profiles and
	// /v1/compose/byref from the profile store.
	Store *store.Store
	// Metrics, when set, receives planner-level observations the
	// observability middleware cannot see (compose.select_rounds). The
	// request-level http.*/compose.latency_ms series are recorded by
	// WithObservability instead. Nil is a valid no-op sink.
	Metrics *metrics.Registry
	// Storm, when set, adds the storm controller's status to /healthz.
	Storm StormReporter
}

// Handler returns the API's http.Handler over in-memory session state.
// Batch compositions share one graph cache for the handler's lifetime.
func Handler() http.Handler {
	return HandlerWithOptions(Options{})
}

// HandlerWithOptions returns the API's http.Handler. With a persistent
// session manager, /healthz reports the startup recovery (sessions
// rebuilt, journal records replayed, torn bytes truncated, reconcile
// outcome).
func HandlerWithOptions(opts Options) http.Handler {
	mux := http.NewServeMux()
	cache := graph.NewCache(0)
	sessions := opts.Sessions
	if sessions == nil {
		// In-memory never errors. Wire the registry through so the
		// failover.reevaluate_<reason> and storm.* counters reach
		// /metrics even without a caller-supplied manager.
		m, _ := session.NewManager(session.ManagerConfig{
			Counters: metrics.CountersOn(opts.Metrics),
		})
		sessions = m
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		handleHealth(w, r, sessions, opts.Storm)
	})
	if fr, ok := opts.Storm.(FlightReporter); ok {
		mux.HandleFunc("/debug/storms", func(w http.ResponseWriter, r *http.Request) {
			handleStorms(w, r, fr)
		})
	}
	mux.HandleFunc("/v1/formats", handleFormats)
	mux.HandleFunc("/v1/compose", func(w http.ResponseWriter, r *http.Request) {
		handleCompose(w, r, opts.Metrics)
	})
	mux.HandleFunc("/v1/composeBatch", func(w http.ResponseWriter, r *http.Request) {
		handleComposeBatch(w, r, cache, opts.Metrics)
	})
	mux.HandleFunc("/v1/graph", handleGraph)
	NewSessionManagerWith(sessions).register(mux)
	if opts.Store != nil {
		registerStore(mux, opts.Store)
	}
	return mux
}

func handleHealth(w http.ResponseWriter, r *http.Request, sessions SessionBackend, storms StormReporter) {
	resp := map[string]interface{}{"status": "ok"}
	if storms != nil {
		resp["storm"] = storms.Status()
	}
	if sessions != nil && sessions.Persistent() {
		resp["durable"] = true
		resp["recovery"] = sessions.Recovery()
	}
	// Replication role, applied offset and lag, so load balancers can
	// gate on a node's replication state, not just liveness.
	switch {
	case sessions == nil:
	case sessions.Persistent():
		rs := &ReplicationStatus{Role: "solo", AppliedSeq: sessions.LastSeq()}
		if rr, ok := sessions.(ReplicationReporter); ok {
			rs = rr.ReplicationStatus()
		}
		resp["replication"] = rs
	default:
		resp["replication"] = &ReplicationStatus{Role: "memory"}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStorms serves the storm flight recorder: the retained storm
// timelines, newest first, each with its begin/class/end events and
// per-class latencies. A storm rebuilt from the WAL appears as one
// flight whose events are all marked replayed.
func handleStorms(w http.ResponseWriter, r *http.Request, fr FlightReporter) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	flights := fr.Flights()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"storms":   flights,
		"retained": len(flights),
	})
}

func handleFormats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	formats := media.WellKnown()
	out := make([]string, len(formats))
	for i, f := range formats {
		out[i] = f.String()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"formats": out})
}

// composeResponse is the JSON shape of a composed chain.
type composeResponse struct {
	Path         []string           `json:"path"`
	Formats      []string           `json:"formats"`
	Params       map[string]float64 `json:"params"`
	Satisfaction float64            `json:"satisfaction"`
	Cost         float64            `json:"cost"`
	Explain      map[string]float64 `json:"explain"`
	Rounds       []roundResponse    `json:"rounds,omitempty"`
}

type roundResponse struct {
	Number       int      `json:"number"`
	Considered   []string `json:"considered"`
	Candidates   []string `json:"candidates"`
	Selected     string   `json:"selected"`
	Path         []string `json:"path"`
	Satisfaction float64  `json:"satisfaction"`
}

func handleCompose(w http.ResponseWriter, r *http.Request, reg *metrics.Registry) {
	comp, status, err := composeFromRequest(w, r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	res := comp.Result
	reg.Observe(metrics.HistSelectRounds, float64(res.Expanded))
	resp := composeResponse{
		Path:         nodeStrings(res.Path),
		Formats:      formatStrings(res.Formats),
		Params:       paramMap(res.Params),
		Satisfaction: res.Satisfaction,
		Cost:         res.Cost,
		Explain:      comp.Explain(),
	}
	for _, round := range res.Rounds {
		resp.Rounds = append(resp.Rounds, roundResponse{
			Number:       round.Number,
			Considered:   nodeStrings(round.Considered),
			Candidates:   nodeStrings(round.Candidates),
			Selected:     string(round.Selected),
			Path:         nodeStrings(round.Path),
			Satisfaction: round.Satisfaction,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchRequest is the JSON body of /v1/composeBatch: the shared profile
// set plus the user profiles to plan. An empty users list plans the
// set's own user.
type batchRequest struct {
	Set   *profile.Set   `json:"set"`
	Users []profile.User `json:"users"`
}

// batchEntryResponse is one user's outcome in a batch response.
type batchEntryResponse struct {
	User         string             `json:"user"`
	Error        string             `json:"error,omitempty"`
	Path         []string           `json:"path,omitempty"`
	Formats      []string           `json:"formats,omitempty"`
	Params       map[string]float64 `json:"params,omitempty"`
	Satisfaction float64            `json:"satisfaction"`
	Cost         float64            `json:"cost"`
}

func handleComposeBatch(w http.ResponseWriter, r *http.Request, cache *graph.Cache, reg *metrics.Registry) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	defer r.Body.Close()
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), err.Error())
		return
	}
	if req.Set == nil {
		writeError(w, http.StatusBadRequest, "missing set")
		return
	}
	q := r.URL.Query()
	opts := qoschain.Options{
		Trace:   q.Get("trace") == "1",
		Prune:   q.Get("prune") == "1",
		Contact: profile.ContactClass(q.Get("contact")),
		Cache:   cache,
	}
	users := req.Users
	if len(users) == 0 {
		users = []profile.User{req.Set.User}
	}
	results, _, err := qoschain.ComposeBatchCtx(r.Context(), req.Set, users, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entries := make([]batchEntryResponse, len(results))
	for i, br := range results {
		entry := batchEntryResponse{User: users[i].Name}
		if br.Err != nil {
			entry.Error = br.Err.Error()
		} else {
			reg.Observe(metrics.HistSelectRounds, float64(br.Result.Expanded))
			entry.Path = nodeStrings(br.Result.Path)
			entry.Formats = formatStrings(br.Result.Formats)
			entry.Params = paramMap(br.Result.Params)
			entry.Satisfaction = br.Result.Satisfaction
			entry.Cost = br.Result.Cost
		}
		entries[i] = entry
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"results": entries})
}

func handleGraph(w http.ResponseWriter, r *http.Request) {
	comp, status, err := composeFromRequest(w, r)
	if err != nil && comp == nil {
		writeError(w, status, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	if err := comp.Graph.WriteDOT(w, "adaptation"); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// composeFromRequest parses the body and runs the composition under
// the request's context (deadline propagation). A no-chain failure
// still returns the composition (for /v1/graph) along with the error.
// The body reader is bound to the real ResponseWriter so oversize
// requests surface as a clean 413 instead of a connection reset.
func composeFromRequest(w http.ResponseWriter, r *http.Request) (*qoschain.Composition, int, error) {
	if r.Method != http.MethodPost {
		return nil, http.StatusMethodNotAllowed, errors.New("POST only")
	}
	defer r.Body.Close()
	set, err := profile.DecodeSet(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, bodyErrorStatus(err), err
	}
	q := r.URL.Query()
	opts := qoschain.Options{
		Trace:   q.Get("trace") == "1",
		Prune:   q.Get("prune") == "1",
		Contact: profile.ContactClass(q.Get("contact")),
	}
	comp, err := qoschain.ComposeCtx(r.Context(), set, opts)
	if err != nil {
		if comp != nil && errors.Is(err, core.ErrNoChain) {
			return comp, http.StatusUnprocessableEntity, fmt.Errorf("no adaptation chain: %w", err)
		}
		if errors.Is(err, core.ErrAborted) {
			return nil, http.StatusServiceUnavailable, err
		}
		return nil, http.StatusBadRequest, err
	}
	return comp, http.StatusOK, nil
}

// bodyErrorStatus maps a request-body decode failure to its status:
// 413 when http.MaxBytesReader cut the body off, 400 otherwise.
func bodyErrorStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func nodeStrings(ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func formatStrings(fs []media.Format) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func paramMap(p media.Params) map[string]float64 {
	out := make(map[string]float64, len(p))
	for k, v := range p {
		out[string(k)] = v
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	je := jsonEncoders.Get().(*jsonEncoder)
	je.buf.Reset()
	if je.enc.Encode(v) == nil {
		_, _ = w.Write(je.buf.Bytes())
	}
	if je.buf.Cap() <= 64<<10 { // a rare large body is not kept
		jsonEncoders.Put(je)
	}
}

// jsonEncoder is an indenting JSON encoder with the buffer it writes
// into. writeJSON takes one from jsonEncoders per response, so the
// encoder's indentation scratch and the buffer are reused instead of
// allocated per response; the body is the bytes a fresh encoder writes.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	je.enc.SetIndent("", "  ")
	return je
}}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": strings.TrimSpace(msg)})
}
