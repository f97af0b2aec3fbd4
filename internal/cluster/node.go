package cluster

// node.go is one replica of the composition tier. A Node owns a
// primary session.Manager (the sessions this node minted, journaled
// under StateDir/primary with IDs prefixed "<node>-") plus one replica
// manager per remote node it follows (StateDir/replica-<source>), each
// rebuilt purely from the source's shipped journal — byte-identical by
// construction, since ApplyReplicated appends the exact shipped bytes
// and replays them through the same event-sourced state machine the
// source ran.
//
// On a source's death the Router asks its follower to Promote the
// replica: the node fences the source (no further ships accepted, so a
// resurrected primary cannot fork the adopted sessions), captures the
// pre-fault state hashes for identity audits, injects the dead node's
// overlay host crash into every adopted session, and runs the standard
// post-recovery Reconcile so the sessions fail over and no bandwidth
// reservation stays held on links through the dead host. Promotion is
// journaled in the replica's own WAL (the fault/reevaluate commands it
// causes) and recorded in a marker file, so it survives a restart of
// the adopting node too.
//
// Node implements httpapi.SessionBackend — the ordinary /v1/sessions
// routes serve the union of the primary and the adopted sessions — and
// httpapi.ReplicationReporter, so /healthz shows the node's role,
// applied offset, and per-stream lag.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"qoschain/internal/fault"
	"qoschain/internal/httpapi"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/session"
)

// PromotePath and StatusPath are the cluster control routes a Node
// serves next to ShipPath.
const (
	PromotePath = "/v1/cluster/promote"
	StatusPath  = "/v1/cluster/status"
)

// promotedMarker persists a promotion inside the replica's state dir.
const promotedMarker = "promoted.json"

// maxShipBody bounds a ship request body (a batch of journal records
// plus at most one snapshot).
const maxShipBody = 64 << 20

// NodeConfig assembles a Node.
type NodeConfig struct {
	// ID is the node's cluster-wide identity; it prefixes every session
	// ID the node mints ("n1" mints "n1-s1").
	ID string
	// StateDir roots the node's durable state: primary/ for its own
	// sessions, replica-<source>/ per followed node.
	StateDir string
	// Host is the overlay host this node fronts; when the node dies,
	// its follower injects this host's crash into the adopted sessions.
	Host string
	// SnapshotEvery compacts the primary journal after this many
	// commands (see session.ManagerConfig).
	SnapshotEvery int
	// ShipBatch caps records per ship batch (0 = journal default).
	ShipBatch int
	// Counters receives replication.* and cluster.* metrics (nil is a
	// no-op sink).
	Counters *metrics.Counters
	// Client ships batches (nil uses http.DefaultClient).
	Client *http.Client
	// StormVerify arms the primary's naive-equivalence check (harness
	// use only; replicas replay recorded plans and never Select).
	StormVerify bool
	// StormHaltAfterFanouts arms the primary's deterministic mid-storm
	// crash site (harness use only).
	StormHaltAfterFanouts int
}

// replica is one followed node's mirrored state.
type replica struct {
	source   string
	dir      string
	m        *session.Manager
	promoted bool
	report   *PromoteReport
}

// Node is one member of the replicated composition tier.
type Node struct {
	cfg     NodeConfig
	primary *session.Manager
	shipper *Shipper

	mu       sync.Mutex
	replicas map[string]*replica
}

// NewNode opens (or recovers) a node's durable state: the primary
// manager plus every replica directory a previous process left behind,
// including their promotion markers.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: node ID required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("cluster: state dir required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	primary, err := session.NewManager(session.ManagerConfig{
		StateDir:              filepath.Join(cfg.StateDir, "primary"),
		IDPrefix:              cfg.ID + "-",
		SnapshotEvery:         cfg.SnapshotEvery,
		Counters:              cfg.Counters,
		StormVerify:           cfg.StormVerify,
		StormHaltAfterFanouts: cfg.StormHaltAfterFanouts,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: opening primary state: %w", err)
	}
	n := &Node{cfg: cfg, primary: primary, replicas: map[string]*replica{}}
	n.shipper = &Shipper{node: n, client: cfg.Client, batch: cfg.ShipBatch}
	entries, err := os.ReadDir(cfg.StateDir)
	if err != nil {
		primary.Close() //nolint:errcheck
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "replica-") {
			continue
		}
		source := strings.TrimPrefix(e.Name(), "replica-")
		if _, err := n.openReplicaLocked(source); err != nil {
			n.Close() //nolint:errcheck
			return nil, err
		}
	}
	return n, nil
}

// counters returns the node's metric sink (nil-safe by contract).
func (n *Node) counters() *metrics.Counters { return n.cfg.Counters }

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.ID }

// Manager exposes the primary session manager (tests and the simulator
// audit reservations through it).
func (n *Node) Manager() *session.Manager { return n.primary }

// Shipper exposes the node's journal shipper so a serving loop can set
// the follower and drive ship rounds.
func (n *Node) Shipper() *Shipper { return n.shipper }

// openReplicaLocked opens (creating if absent) the replica state for
// source. Callers hold n.mu (or are single-threaded construction).
func (n *Node) openReplicaLocked(source string) (*replica, error) {
	if source == "" || source == n.cfg.ID {
		return nil, fmt.Errorf("cluster: invalid replication source %q", source)
	}
	dir := filepath.Join(n.cfg.StateDir, "replica-"+source)
	m, err := session.NewManager(session.ManagerConfig{
		StateDir: dir,
		// Replicated creates must replay under their original IDs.
		IDPrefix: source + "-",
		// The source decides compaction; the replica follows verbatim.
		SnapshotEvery: -1,
		Counters:      n.cfg.Counters,
		// The halt crash site stays primary-only, and Verify is
		// pointless on a replica (replay applies recorded plans, it
		// never runs Select).
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: opening replica of %s: %w", source, err)
	}
	r := &replica{source: source, dir: dir, m: m}
	if data, err := os.ReadFile(filepath.Join(dir, promotedMarker)); err == nil {
		var rep PromoteReport
		if json.Unmarshal(data, &rep) == nil {
			r.promoted, r.report = true, &rep
		}
	}
	n.replicas[source] = r
	return r, nil
}

// bootstrapReplicaLocked rebuilds the replica of source from a shipped
// snapshot, discarding whatever (stale, pre-compaction) state was held.
func (n *Node) bootstrapReplicaLocked(source string, snap *journal.Snapshot) (*replica, error) {
	if r := n.replicas[source]; r != nil {
		r.m.Close() //nolint:errcheck
		delete(n.replicas, source)
	}
	dir := filepath.Join(n.cfg.StateDir, "replica-"+source)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := journal.Bootstrap(dir, snap); err != nil {
		return nil, err
	}
	return n.openReplicaLocked(source)
}

// Close releases the primary and every replica manager.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.primary.Close()
	for _, r := range n.replicas {
		if cerr := r.m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---- httpapi.SessionBackend ------------------------------------------

// CreateCtx mints a session on this node's primary manager.
func (n *Node) CreateCtx(ctx context.Context, spec session.CreateSpec) (*session.Managed, error) {
	return n.primary.CreateCtx(ctx, spec)
}

// Get resolves id against the primary, then against adopted (promoted)
// replicas. Unpromoted replica state is never served — it is a warm
// standby, not a read replica.
func (n *Node) Get(id string) (*session.Managed, bool) {
	if ms, ok := n.primary.Get(id); ok {
		return ms, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.replicas {
		if !r.promoted {
			continue
		}
		if ms, ok := r.m.Get(id); ok {
			return ms, true
		}
	}
	return nil, false
}

// List returns the union of primary and adopted sessions, sorted by ID.
func (n *Node) List() []*session.Managed {
	out := n.primary.List()
	n.mu.Lock()
	for _, r := range n.replicas {
		if r.promoted {
			out = append(out, r.m.List()...)
		}
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Delete tears a session down wherever it lives.
func (n *Node) Delete(id string) (bool, error) {
	if ok, err := n.primary.Delete(id); ok {
		return ok, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.replicas {
		if !r.promoted {
			continue
		}
		if ok, err := r.m.Delete(id); ok {
			return ok, err
		}
	}
	return false, session.ErrUnknownSession
}

// Persistent reports durability (always true — a cluster node requires
// a state directory).
func (n *Node) Persistent() bool { return n.primary.Persistent() }

// Recovery reports the primary's startup recovery.
func (n *Node) Recovery() *session.RecoveryReport { return n.primary.Recovery() }

// LastSeq is the primary journal's applied offset.
func (n *Node) LastSeq() uint64 { return n.primary.LastSeq() }

// StormFingerprint renders the storm controller state of the primary
// (source == "") or of the replica mirroring source. Byte-equality of
// these strings across nodes is the cluster storm audit: a promoted
// follower must land on the dead primary's exact class chains.
func (n *Node) StormFingerprint(source string) (string, error) {
	if source == "" {
		return n.primary.StormController().Fingerprint()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.replicas[source]
	if r == nil {
		return "", fmt.Errorf("cluster: %s holds no replica of %s", n.cfg.ID, source)
	}
	return r.m.StormController().Fingerprint()
}

// ReplicaManager exposes the manager mirroring source, for audits that
// need more than the fingerprint (e.g. the shared-region reservation
// ledger after a promotion).
func (n *Node) ReplicaManager(source string) (*session.Manager, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.replicas[source]
	if r == nil {
		return nil, false
	}
	return r.m, true
}

// ---- httpapi.ReplicationReporter -------------------------------------

// ReplicationStatus reports the node's role and per-stream offsets for
// /healthz: the outbound ship stream (with the primary's view of
// follower lag) and one inbound apply stream per followed node.
func (n *Node) ReplicationStatus() *httpapi.ReplicationStatus {
	rs := &httpapi.ReplicationStatus{
		Role:       "primary",
		NodeID:     n.cfg.ID,
		AppliedSeq: n.primary.LastSeq(),
	}
	if peer, acked, ok := n.shipper.Peer(); ok {
		rs.Streams = append(rs.Streams, httpapi.ReplicationStream{
			Peer:       peer.ID,
			Direction:  "ship",
			AckedSeq:   acked,
			LagRecords: int64(n.primary.LastSeq()) - int64(acked),
		})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, source := range n.sortedSourcesLocked() {
		r := n.replicas[source]
		rs.Streams = append(rs.Streams, httpapi.ReplicationStream{
			Peer:       source,
			Direction:  "apply",
			AppliedSeq: r.m.LastSeq(),
			Promoted:   r.promoted,
		})
	}
	return rs
}

func (n *Node) sortedSourcesLocked() []string {
	out := make([]string, 0, len(n.replicas))
	for s := range n.replicas {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ---- promotion --------------------------------------------------------

// PromoteReport summarizes a failover adoption.
type PromoteReport struct {
	// Source is the dead node whose replica was promoted.
	Source string `json:"source"`
	// FailHost is the overlay host whose crash was injected.
	FailHost string `json:"failHost,omitempty"`
	// Adopted counts sessions taken over.
	Adopted int `json:"adopted"`
	// AppliedSeq is the replica's journal offset at promotion — the
	// last source command that survived.
	AppliedSeq uint64 `json:"appliedSeq"`
	// StateHashes are the adopted sessions' state hashes BEFORE the
	// host-crash fault, for byte-identity audits against the dead
	// primary's last published hashes.
	StateHashes map[string]string `json:"stateHashes,omitempty"`
	// Reconcile is the post-adoption reservation sweep: every hold on a
	// link through the dead host is released or re-homed here.
	Reconcile *session.ReconcileReport `json:"reconcile,omitempty"`
	// TookMs is the wall-clock promotion latency.
	TookMs float64 `json:"tookMs"`
}

// StateHash condenses a session fingerprint for wire-size identity
// comparison.
func StateHash(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:])
}

// Promote adopts the replica of source: fence the source, hash the
// adopted state, inject the dead node's host crash, and reconcile so
// no reservation stays held on the dead node's links. Idempotent — a
// second promotion returns the original report.
func (n *Node) Promote(source, failHost string) (*PromoteReport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.replicas[source]
	if r == nil {
		return nil, fmt.Errorf("cluster: %s holds no replica of %s", n.cfg.ID, source)
	}
	if r.promoted {
		return r.report, nil
	}
	start := time.Now()
	// Fence first: from this point no ship from the source can land,
	// so a resurrected primary cannot fork the adopted sessions.
	r.promoted = true
	rep := &PromoteReport{
		Source:      source,
		FailHost:    failHost,
		AppliedSeq:  r.m.LastSeq(),
		StateHashes: map[string]string{},
	}
	sessions := r.m.List()
	rep.Adopted = len(sessions)
	for _, ms := range sessions {
		if fp, err := ms.Fingerprint(); err == nil {
			rep.StateHashes[ms.ID()] = StateHash(fp)
		}
	}
	if failHost != "" {
		for _, ms := range sessions {
			// Sessions whose overlay does not know the host (or whose
			// journal write fails) are left for Reconcile to sweep.
			ms.ApplyFault(fault.Fault{AtStep: 1, Kind: fault.HostCrash, Host: failHost}) //nolint:errcheck
		}
	}
	rep.Reconcile = r.m.Reconcile()
	rep.TookMs = float64(time.Since(start)) / float64(time.Millisecond)
	r.report = rep
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		os.WriteFile(filepath.Join(r.dir, promotedMarker), data, 0o644) //nolint:errcheck // marker is best-effort; the journaled faults already persist the adoption
	}
	c := n.counters()
	c.Inc(metrics.CounterClusterPromotions)
	c.Add(metrics.CounterClusterAdopted, int64(rep.Adopted))
	c.Observe(metrics.SampleClusterRecoveryMs, rep.TookMs)
	return rep, nil
}

// ---- HTTP surface -----------------------------------------------------

// NodeStatus is the /v1/cluster/status document: enough for a router
// or auditor to compare replicas without touching their state dirs.
type NodeStatus struct {
	Node        string            `json:"node"`
	Role        string            `json:"role"`
	AppliedSeq  uint64            `json:"appliedSeq"`
	Chain       string            `json:"chain"`
	Sessions    int               `json:"sessions"`
	StateHashes map[string]string `json:"stateHashes,omitempty"`
	ShipPeer    string            `json:"shipPeer,omitempty"`
	ShipAcked   uint64            `json:"shipAcked,omitempty"`
	Replicas    []ReplicaStatus   `json:"replicas,omitempty"`
}

// ReplicaStatus describes one followed node's mirror.
type ReplicaStatus struct {
	Source      string            `json:"source"`
	AppliedSeq  uint64            `json:"appliedSeq"`
	Chain       string            `json:"chain"`
	Sessions    int               `json:"sessions"`
	Promoted    bool              `json:"promoted"`
	StateHashes map[string]string `json:"stateHashes,omitempty"`
}

// hashAll fingerprints every session of a manager.
func hashAll(list []*session.Managed) map[string]string {
	out := make(map[string]string, len(list))
	for _, ms := range list {
		if fp, err := ms.Fingerprint(); err == nil {
			out[ms.ID()] = StateHash(fp)
		}
	}
	return out
}

// Status snapshots the node for /v1/cluster/status.
func (n *Node) Status() *NodeStatus {
	st := &NodeStatus{
		Node:        n.cfg.ID,
		Role:        "primary",
		AppliedSeq:  n.primary.LastSeq(),
		Chain:       chainHex(n.primary.LastChain()),
		StateHashes: hashAll(n.primary.List()),
	}
	st.Sessions = len(st.StateHashes)
	if peer, acked, ok := n.shipper.Peer(); ok {
		st.ShipPeer, st.ShipAcked = peer.ID, acked
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, source := range n.sortedSourcesLocked() {
		r := n.replicas[source]
		rstat := ReplicaStatus{
			Source:      source,
			AppliedSeq:  r.m.LastSeq(),
			Chain:       chainHex(r.m.LastChain()),
			Promoted:    r.promoted,
			StateHashes: hashAll(r.m.List()),
		}
		rstat.Sessions = len(rstat.StateHashes)
		st.Replicas = append(st.Replicas, rstat)
	}
	return st
}

// Handler wraps an httpapi handler with the cluster control routes.
// /debug/storms is served here rather than by the wrapped API so the
// flight recorder covers the whole node: the primary's storms plus
// every replica's mirrored timeline, each annotated with its source.
func (n *Node) Handler(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShipPath, n.handleShip)
	mux.HandleFunc("POST "+PromotePath, n.handlePromote)
	mux.HandleFunc("GET "+StatusPath, n.handleStatus)
	mux.HandleFunc("GET /debug/storms", n.handleStorms)
	if api != nil {
		mux.Handle("/", api)
	}
	return mux
}

// handleStorms serves the node-wide storm flight recorder: the
// primary's flights stamped with this node's ID, plus each replica's
// rebuilt timelines stamped "replica:<source>" (or "promoted:<source>"
// once adopted). A storm that rode the shipped WAL therefore shows up
// twice — once live on its primary, once replayed on the follower —
// under the same storm sequence number.
func (n *Node) handleStorms(w http.ResponseWriter, hr *http.Request) {
	flights := n.primary.StormController().Flights()
	for i := range flights {
		flights[i].Source = n.cfg.ID
	}
	n.mu.Lock()
	for _, source := range n.sortedSourcesLocked() {
		r := n.replicas[source]
		src := "replica:" + source
		if r.promoted {
			src = "promoted:" + source
		}
		fs := r.m.StormController().Flights()
		for i := range fs {
			fs[i].Source = src
		}
		flights = append(flights, fs...)
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"node":     n.cfg.ID,
		"retained": len(flights),
		"storms":   flights,
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

// handleShip applies one shipped batch to the replica of its source.
// Every rejection carries the replica's applied offset and chain so the
// shipper resumes from the follower's truth.
func (n *Node) handleShip(w http.ResponseWriter, hr *http.Request) {
	defer hr.Body.Close()
	var req shipRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, hr.Body, maxShipBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &shipResponse{Error: err.Error()})
		return
	}
	if req.Source == "" || req.Source == n.cfg.ID {
		writeJSON(w, http.StatusBadRequest, &shipResponse{Error: fmt.Sprintf("invalid ship source %q", req.Source)})
		return
	}
	batch, err := decodeShip(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &shipResponse{Error: err.Error()})
		return
	}
	c := n.counters()
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.replicas[req.Source]
	if r != nil && r.promoted {
		c.Inc(metrics.CounterReplicationShipRejected)
		writeJSON(w, http.StatusConflict, &shipResponse{
			Fenced:     true,
			Error:      fmt.Sprintf("%s was promoted away from %s; ships refused", n.cfg.ID, req.Source),
			AppliedSeq: r.m.LastSeq(),
			Chain:      chainHex(r.m.LastChain()),
		})
		return
	}
	if batch.Snapshot != nil && (r == nil || r.m.LastSeq() < batch.Snapshot.Seq) {
		nr, err := n.bootstrapReplicaLocked(req.Source, batch.Snapshot)
		if err != nil {
			c.Inc(metrics.CounterReplicationShipRejected)
			writeJSON(w, http.StatusInternalServerError, &shipResponse{Error: err.Error()})
			return
		}
		r = nr
	}
	if r == nil {
		if batch.FromSeq != 0 {
			// Nothing held yet; the shipper must restart from zero.
			c.Inc(metrics.CounterReplicationShipRejected)
			writeJSON(w, http.StatusConflict, &shipResponse{Error: "no replica state", AppliedSeq: 0})
			return
		}
		if r, err = n.openReplicaLocked(req.Source); err != nil {
			writeJSON(w, http.StatusInternalServerError, &shipResponse{Error: err.Error()})
			return
		}
	}
	applied, chain := r.m.LastSeq(), r.m.LastChain()
	if batch.FromSeq != applied || batch.FromChain != chain {
		c.Inc(metrics.CounterReplicationShipRejected)
		writeJSON(w, http.StatusConflict, &shipResponse{
			Error:      fmt.Sprintf("offset mismatch: batch from %d, applied %d", batch.FromSeq, applied),
			AppliedSeq: applied,
			Chain:      chainHex(chain),
		})
		return
	}
	if err := journal.VerifyShip(batch); err != nil {
		// Torn or forged batch: reject without touching the journal.
		c.Inc(metrics.CounterReplicationShipRejected)
		writeJSON(w, http.StatusBadRequest, &shipResponse{
			Error:      err.Error(),
			AppliedSeq: applied,
			Chain:      chainHex(chain),
		})
		return
	}
	if len(batch.Records) > 0 {
		if _, err := r.m.ApplyReplicated(batch.Records); err != nil {
			c.Inc(metrics.CounterReplicationShipRejected)
			writeJSON(w, http.StatusInternalServerError, &shipResponse{
				Error:      err.Error(),
				AppliedSeq: r.m.LastSeq(),
				Chain:      chainHex(r.m.LastChain()),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, &shipResponse{
		OK:         true,
		AppliedSeq: r.m.LastSeq(),
		Chain:      chainHex(r.m.LastChain()),
	})
}

// promoteRequest is the POST /v1/cluster/promote body.
type promoteRequest struct {
	Source   string `json:"source"`
	FailHost string `json:"failHost,omitempty"`
}

func (n *Node) handlePromote(w http.ResponseWriter, hr *http.Request) {
	defer hr.Body.Close()
	var req promoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, hr.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rep, err := n.Promote(req.Source, req.FailHost)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (n *Node) handleStatus(w http.ResponseWriter, hr *http.Request) {
	writeJSON(w, http.StatusOK, n.Status())
}
