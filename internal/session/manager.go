package session

// manager.go makes session state durable. A Manager owns the live
// sessions created over the API — each a member of a storm equivalence
// class on a shared region overlay (see storm.go) — and, when given a
// state directory, journals every state-changing command through a
// checksummed, hash-chained write-ahead log (internal/journal): session
// create, fault injection, reevaluate and delete. A command that
// triggers a storm (a fault or a reevaluate) is appended in one batch
// with the embedded storm controller's record of that storm — one
// Log.Append, one fsync — so the journal never holds part of a storm.
//
// The state machine is deterministic: the clock is virtual (one tick
// per reevaluate), faults mutate only the region overlays, and storm
// records replay their recorded plans verbatim. Replaying the journal
// therefore rebuilds byte-identical session and class state — including
// bandwidth holds, which are re-applied through the same
// overlay.ReserveChain admissions the live path used. Snapshots carry
// the full ordered command log (sessions in one region share overlay
// state, so cross-session order is what makes replay deterministic),
// and recovery is snapshot + journal-suffix replay. The manager keeps
// each command as the bytes it journaled, so a snapshot splices those
// bytes into its payload instead of re-encoding the history; recovery
// decodes the snapshot once and keeps its command array as one entry.
// The log holds each region's infrastructure once: the first create of
// a region journals the whole profile set, and every later one names
// the region and carries only the per-user profiles (createRecord).
//
// One mutex orders commands: each runs apply → storm → journal under
// it, so journal order is application order and no other command's
// record lands between a command and its storm. A crash between a
// command's record and its storm record leaves the command without its
// storm; after replay, Reconcile re-plans what that left pending, along
// with every class whose members hold bandwidth on links that died.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
	"qoschain/internal/trace"
)

// ErrBadSpec marks a CreateSpec that fails validation before any
// composition runs — the HTTP layer maps it to 400.
var ErrBadSpec = errors.New("session: invalid spec")

// ErrUnknownSession is returned for operations against absent IDs.
var ErrUnknownSession = errors.New("session: unknown session")

// ErrJournal marks a durability failure: the command applied in memory
// but did not reach the write-ahead journal. The server should treat it
// as fatal — a restart recovers to the last fsynced record.
var ErrJournal = errors.New("session: journal write failed")

// CreateSpec is everything needed to build one managed session. The
// journal records it as a createRecord: whole for the first create of a
// region, and without the region's network and intermediaries after
// that.
type CreateSpec struct {
	// Set is the full profile set the session composes over. Its network
	// and intermediary profiles name the session's region: sessions
	// created over the same infrastructure share one region overlay.
	Set profile.Set `json:"set"`
	// Floor is the class's QoS floor: below it the class is degraded.
	Floor float64 `json:"floor,omitempty"`
	// Contact selects per-contact user preferences.
	Contact string `json:"contact,omitempty"`
	// Reserve holds the chain's bitrate on the region overlay's links.
	Reserve bool `json:"reserve,omitempty"`
}

// ManagerConfig assembles a Manager.
type ManagerConfig struct {
	// StateDir enables durability: commands are journaled there and
	// replayed on the next open. Empty keeps the manager in-memory only.
	StateDir string
	// IDPrefix namespaces session IDs (e.g. "n1-" yields "n1-s1"), so a
	// cluster router can map any session ID back to the node that minted
	// it. Empty for a standalone daemon. A replica manager mirroring a
	// remote primary sets the primary's prefix, so replicated creates
	// replay under their original IDs.
	IDPrefix string
	// SnapshotEvery compacts the journal after this many commands.
	// Default 64; negative disables periodic snapshots.
	SnapshotEvery int
	// Counters receives journal.*, recovery.*, storm.* and qos.*
	// metrics, and mirrors every per-session reevaluate-reason counter.
	// Nil is a valid no-op sink.
	Counters *metrics.Counters
	// FailPoints injects deterministic crash sites into the journal —
	// the adaptsim -crash harness and tests arm these.
	FailPoints *journal.FailPoints
	// Deprecated: storm-attached is the only mode; ignored.
	Storm bool
	// StormVerify arms the controller's naive per-session equivalence
	// check (harness use only).
	StormVerify bool
}

// walEvent is the journaled wire form of one command.
type walEvent struct {
	Op     string        `json:"op"` // create | fault | reevaluate | delete
	ID     string        `json:"id"`
	Create *createRecord `json:"create,omitempty"`
	Fault  *fault.Fault  `json:"fault,omitempty"`
	// Reason attributes a reevaluate command to its driver — "manual"
	// (client request), "fault" (post-recovery reconciliation) or
	// "storm" (mass re-composition) — so traces can tell storm-driven
	// re-plans from client requests. Empty on journals written
	// before the field existed; replay treats empty as unattributed.
	Reason string `json:"reason,omitempty"`
	// Kind/Data carry a storm controller record when Op is "storm":
	// Kind is the controller's record kind (storm.RecordKind; journals
	// written before a storm was one record also hold storm-begin,
	// storm-class and storm-end) and Data its payload, replayed back
	// through storm.Controller.ReplayRecord.
	Kind string          `json:"kind,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// createRecord is the journaled form of a create command. The paper's
// network and intermediary profiles (Section 4.3) describe a region's
// shared infrastructure, the bulk of a profile set, so the journal
// holds them once per region:
//
//   - The first create journaled for a region carries the whole set in
//     Set and no region name: the bytes a CreateSpec encodes to, so
//     every journal written before regions were named reads the same.
//   - Every later create of that region carries Region, the region's
//     name, and the per-user half of the set — User, Content, Context
//     and Device — with no Set. Replay resolves the name to the
//     infrastructure of the region's first create (see
//     Manager.regionSets); a name it does not know is a replay error.
//
// Floor, Contact and Reserve are CreateSpec's, in either form.
type createRecord struct {
	Region  string           `json:"region,omitempty"`
	Set     *profile.Set     `json:"set,omitempty"`
	User    *profile.User    `json:"user,omitempty"`
	Content *profile.Content `json:"content,omitempty"`
	Context *profile.Context `json:"context,omitempty"`
	Device  *profile.Device  `json:"device,omitempty"`
	Floor   float64          `json:"floor,omitempty"`
	Contact string           `json:"contact,omitempty"`
	Reserve bool             `json:"reserve,omitempty"`
}

// RecoveryReport summarizes what a Manager rebuilt at startup; adaptd
// exposes it on /healthz.
type RecoveryReport struct {
	// SnapshotSeq/SnapshotSessions describe the loaded snapshot.
	SnapshotSeq      uint64 `json:"snapshotSeq"`
	SnapshotSessions int    `json:"snapshotSessions"`
	// JournalRecords is how many journal-suffix commands replayed.
	JournalRecords int `json:"journalRecords"`
	// TruncatedBytes counts torn-tail bytes recovery dropped.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// Sessions is the live session count after replay.
	Sessions int `json:"sessions"`
	// LastSeq is the journal position the manager resumed from.
	LastSeq uint64 `json:"lastSeq"`
	// Skipped names corrupt or stale files recovery ignored.
	Skipped []string `json:"skipped,omitempty"`
	// ReplayErrors lists commands that failed to re-apply.
	ReplayErrors []string `json:"replayErrors,omitempty"`
	// Reconcile is filled in once Reconcile has run.
	Reconcile *ReconcileReport `json:"reconcile,omitempty"`
}

// ReconcileReport summarizes the post-recovery reservation sweep.
type ReconcileReport struct {
	// Checked counts sessions inspected.
	Checked int `json:"checked"`
	// Recomposed counts sessions re-planned because their holds sat on
	// dead links.
	Recomposed int `json:"recomposed"`
	// ReleasedKbps is the bandwidth freed from holds on dead links.
	ReleasedKbps float64 `json:"releasedKbps"`
	// Sessions names the recomposed sessions, sorted.
	Sessions []string `json:"sessions,omitempty"`
}

// Manager owns live sessions and their durability.
type Manager struct {
	mu          sync.Mutex
	cfg         ManagerConfig
	log         *journal.Log
	sessions    map[string]*Managed
	seq         int // session ID counter
	eventsSince int // commands since the last snapshot
	recovery    *RecoveryReport

	// storm is the embedded controller (its storm records journal in
	// this manager's WAL). ordered is the full command log in journal
	// order, the snapshot payload: each entry is the encoded bytes of
	// one record, except that after recovery from a snapshot the first
	// entry is that snapshot's whole command array body (comma-joined
	// records), so entries joined by commas always form the array.
	// cmdMu orders commands: create, delete, fault, reevaluate and
	// Reconcile each hold it across apply → storm → journal, so journal
	// order is the order commands changed the shared region overlays.
	// Lock order is cmdMu, then the controller or m.mu.
	storm   *storm.Controller
	ordered []json.RawMessage
	cmdMu   sync.Mutex
	// snapParts is the snapshot payload's parts, kept between snapshots
	// so a snapshot allocates no slice of them.
	snapParts [][]byte

	// regionSets maps each region whose infrastructure the command log
	// holds to the full set of the region's first journaled create; a
	// later create of the region journals only its name (createRecord).
	// It is set on journaling or replaying a full-set create, never from
	// the controller's regions: a create whose build fails after
	// registering its region journals nothing. Guarded by m.mu.
	regionSets map[string]*profile.Set
}

// Managed is one manager-owned session: a member of a storm equivalence
// class. net aliases the shared region overlay, and all re-composition
// happens through the manager's storm controller.
type Managed struct {
	mu       sync.Mutex
	m        *Manager
	id       string
	net      *overlay.Network
	pool     *fault.ServiceSet
	counters *metrics.Counters // per-session reevaluate-reason counters

	classKey string
	region   string
	step     int // virtual clock: one tick per reevaluate
	// seenSwaps is the member's chain-swap count at its last reevaluate
	// (or at recovery): a reevaluate reports a change when the count has
	// moved since, whether its own re-plan or a fault's storm swapped.
	seenSwaps int
}

// NewManager builds a manager and — with a state directory — recovers
// every committed session from the snapshot and journal.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	m := &Manager{
		cfg:        cfg,
		sessions:   make(map[string]*Managed),
		recovery:   &RecoveryReport{},
		regionSets: make(map[string]*profile.Set),
	}
	// The embedded controller's storm records journal in this
	// manager's WAL; it is rebuilt from them on recovery.
	ctrl, err := storm.Open(storm.Config{
		Verify:   cfg.StormVerify,
		Counters: cfg.Counters,
	}, nil)
	if err != nil {
		return nil, err
	}
	m.storm = ctrl
	if cfg.StateDir == "" {
		return m, nil
	}
	log, rec, err := journal.OpenLog(cfg.StateDir, journal.Options{
		FailPoints: cfg.FailPoints,
		Counters:   cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	m.log = log
	m.recovery = &RecoveryReport{
		SnapshotSeq:    rec.SnapshotSeq,
		JournalRecords: len(rec.Records),
		TruncatedBytes: rec.TruncatedBytes,
		LastSeq:        rec.LastSeq,
		Skipped:        rec.Skipped,
	}
	if rec.SnapshotData != nil {
		// Sessions is the per-session history map a snapshot of the
		// removed per-session manager mode carried. Such a snapshot is
		// refused rather than silently recovered to zero sessions.
		var doc struct {
			Seq      int                        `json:"seq"`
			Ordered  []walEvent                 `json:"ordered"`
			Sessions map[string]json.RawMessage `json:"sessions"`
		}
		if err := json.Unmarshal(rec.SnapshotData, &doc); err != nil {
			log.Close()
			return nil, fmt.Errorf("session: decoding snapshot: %w", err)
		}
		if len(doc.Sessions) > 0 {
			log.Close()
			return nil, fmt.Errorf("session: snapshot seq %d in %s holds %d per-session histories written by the removed per-session manager mode; only storm-attached snapshots can be recovered",
				rec.SnapshotSeq, cfg.StateDir, len(doc.Sessions))
		}
		body, ok := snapshotBody(rec.SnapshotData, doc.Seq)
		if !ok {
			log.Close()
			return nil, fmt.Errorf("session: decoding snapshot seq %d in %s: payload is not in the snapshot writer's layout", rec.SnapshotSeq, cfg.StateDir)
		}
		m.seq = doc.Seq
		// The snapshot is the ordered command log; replay it like a
		// journal prefix (cross-session order matters on the shared
		// region overlays). Its array body, already encoded, becomes
		// the log's first entry.
		if body != nil {
			m.ordered = append(m.ordered, body)
		}
		for _, ev := range doc.Ordered {
			m.replayCommand(ev, nil, 0)
		}
		m.recovery.SnapshotSessions = len(m.sessions)
	}
	for _, r := range rec.Records {
		var ev walEvent
		if err := json.Unmarshal(r.Data, &ev); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: %v", r.Seq, err))
			continue
		}
		m.replayCommand(ev, r.Data, r.Seq)
	}
	// Changes made before the restart are not news to the next
	// reevaluate.
	for _, ms := range m.sessions {
		if v, ok := m.storm.MemberState(ms.id); ok {
			ms.seenSwaps = v.Swaps
		}
	}
	m.recovery.Sessions = len(m.sessions)
	cfg.Counters.Add(metrics.CounterRecoverySessions, int64(len(m.sessions)))
	return m, nil
}

// replayError records one failed replay without aborting recovery: the
// affected session stays at its last good state.
func (m *Manager) replayError(msg string) {
	m.recovery.ReplayErrors = append(m.recovery.ReplayErrors, msg)
	m.cfg.Counters.Inc(metrics.CounterRecoveryErrors)
}

// replayCommand re-applies one journaled command during recovery. raw
// is the command's journaled bytes; nil for a command the ordered log
// already holds (one replayed from the snapshot).
func (m *Manager) replayCommand(ev walEvent, raw json.RawMessage, seq uint64) {
	// The ordered log must mirror the journal exactly so the next
	// snapshot replays to the same state.
	if raw != nil {
		m.ordered = append(m.ordered, raw)
	}
	switch ev.Op {
	case "create":
		if ev.Create == nil {
			m.replayError(fmt.Sprintf("journal seq %d: create without spec", seq))
			return
		}
		spec, err := m.resolveCreate(ev.Create)
		var ms *Managed
		if err == nil {
			ms, err = m.build(ev.ID, spec, ev.Create.Region)
		}
		if err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: create %s: %v", seq, ev.ID, err))
			return
		}
		if ev.Create.Set != nil {
			m.noteRegionSet(ms.region, ev.Create.Set)
		}
		m.sessions[ev.ID] = ms
		m.bumpSeq(ev.ID)
	case "fault", "reevaluate":
		ms := m.sessions[ev.ID]
		if ms == nil {
			m.replayError(fmt.Sprintf("journal seq %d: %s against unknown session %s", seq, ev.Op, ev.ID))
			return
		}
		if err := ms.replay(ev); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: %s %s: %v", seq, ev.Op, ev.ID, err))
		}
	case "delete":
		if _, ok := m.sessions[ev.ID]; ok {
			if err := m.storm.DetachSession(ev.ID); err != nil {
				m.replayError(fmt.Sprintf("journal seq %d: detach %s: %v", seq, ev.ID, err))
			}
		}
		delete(m.sessions, ev.ID)
	case "storm":
		// A storm controller record; hand it back for replay (plans
		// re-apply as recorded — no Select).
		if err := m.storm.ReplayRecord(ev.Kind, ev.Data); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: storm %s: %v", seq, ev.Kind, err))
		}
	default:
		m.replayError(fmt.Sprintf("journal seq %d: unknown op %q", seq, ev.Op))
	}
}

// resolveCreate turns a journaled create back into the spec it was
// made from. A full-set record is its own spec; a named one takes its
// network and intermediaries from the region's first create.
func (m *Manager) resolveCreate(rec *createRecord) (CreateSpec, error) {
	spec := CreateSpec{Floor: rec.Floor, Contact: rec.Contact, Reserve: rec.Reserve}
	if rec.Region == "" {
		if rec.Set == nil {
			return spec, fmt.Errorf("create carries neither a profile set nor a region")
		}
		spec.Set = *rec.Set
		return spec, nil
	}
	infra := m.regionSets[rec.Region]
	if infra == nil {
		return spec, fmt.Errorf("create names region %s, which no earlier create carried", rec.Region)
	}
	if rec.Set != nil || rec.User == nil || rec.Content == nil || rec.Device == nil {
		return spec, fmt.Errorf("create naming region %s must carry user, content and device profiles and no set", rec.Region)
	}
	spec.Set = profile.Set{
		User:           *rec.User,
		Content:        *rec.Content,
		Device:         *rec.Device,
		Network:        infra.Network,
		Intermediaries: infra.Intermediaries,
	}
	if rec.Context != nil {
		spec.Set.Context = *rec.Context
	}
	return spec, nil
}

// noteRegionSet records that the command log holds region's
// infrastructure, in set, unless an earlier create already carried it.
func (m *Manager) noteRegionSet(region string, set *profile.Set) {
	if m.regionSets[region] == nil {
		m.regionSets[region] = set
	}
}

// createRecordFor is the journal form of a live create of spec in
// region: whole when the command log does not hold the region yet, and
// named after that. Callers hold m.mu.
func (m *Manager) createRecordFor(region string, spec *CreateSpec) *createRecord {
	rec := &createRecord{Floor: spec.Floor, Contact: spec.Contact, Reserve: spec.Reserve}
	if m.regionSets[region] == nil {
		rec.Set = &spec.Set
		m.noteRegionSet(region, &spec.Set)
		return rec
	}
	rec.Region = region
	rec.User, rec.Content, rec.Context, rec.Device = &spec.Set.User, &spec.Set.Content, &spec.Set.Context, &spec.Set.Device
	return rec
}

// bumpSeq keeps the ID counter ahead of every replayed session ID.
func (m *Manager) bumpSeq(id string) {
	id = strings.TrimPrefix(id, m.cfg.IDPrefix)
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > m.seq {
		m.seq = n
	}
}

// journalCommand appends one command and, when rec is non-nil, the
// record of the storm the command caused, with one Log.Append — one
// fsync — then compacts when due. Callers hold m.mu. A nil log is a
// no-op.
func (m *Manager) journalCommand(ev walEvent, rec json.RawMessage) error {
	if m.log == nil {
		return nil
	}
	evs := []walEvent{ev}
	if rec != nil {
		evs = append(evs, walEvent{Op: "storm", Kind: storm.RecordKind, Data: rec})
	}
	datas := make([][]byte, len(evs))
	for i, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("session: encoding command: %w", err)
		}
		datas[i] = data
		m.ordered = append(m.ordered, data)
	}
	if _, err := m.log.Append(datas...); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	// The cadence counts commands, not records: whether a command's
	// storm journaled a record must not move every later snapshot.
	m.eventsSince++
	if m.cfg.SnapshotEvery > 0 && m.eventsSince >= m.cfg.SnapshotEvery {
		return m.snapshotLocked()
	}
	return nil
}

// snapshotLocked publishes a compacting snapshot. Callers hold m.mu.
//
// The payload is {"seq":N,"ordered":[...]} with the ordered entries
// spliced in as journaled, or {"seq":N} when the log is empty: the
// bytes json.Marshal writes for a {Seq int; Ordered []walEvent
// `json:",omitempty"`} document of the same commands, without
// re-encoding any of them. The entries go to the log as parts of the
// payload, so a snapshot joins nothing in memory. snapshotBody is the
// reader of this layout.
func (m *Manager) snapshotLocked() error {
	if m.log == nil {
		return nil
	}
	head := `{"seq":` + strconv.Itoa(m.seq)
	parts := m.snapParts[:0]
	if len(m.ordered) == 0 {
		parts = append(parts, []byte(head+"}"))
	} else {
		parts = append(parts, []byte(head+`,"ordered":[`))
		for i, e := range m.ordered {
			if i > 0 {
				parts = append(parts, comma)
			}
			parts = append(parts, e)
		}
		parts = append(parts, closeOrdered)
	}
	m.snapParts = parts
	err := m.log.Snapshot(parts...)
	clear(parts)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	m.eventsSince = 0
	return nil
}

// The separators snapshotLocked splices between and after the entries.
var comma, closeOrdered = []byte(","), []byte("]}")

// snapshotBody returns the command array body of a snapshot payload
// whose seq field decoded to seq: the bytes between the brackets of
// {"seq":N,"ordered":[...]}, as a sub-slice of data, or nil for
// {"seq":N}. ok is false for any other layout — snapshotLocked writes
// only these two, and the body is kept verbatim as the ordered log's
// first entry, so a payload it cannot splice back must be refused.
func snapshotBody(data []byte, seq int) (body json.RawMessage, ok bool) {
	head := `{"seq":` + strconv.Itoa(seq)
	if string(data) == head+"}" {
		return nil, true
	}
	head += `,"ordered":[`
	const tail = "]}"
	if len(data) <= len(head)+len(tail) || string(data[:len(head)]) != head || string(data[len(data)-len(tail):]) != tail {
		return nil, false
	}
	return data[len(head) : len(data)-len(tail)], true
}

// Recovery returns the startup recovery report (empty for an in-memory
// manager).
func (m *Manager) Recovery() *RecoveryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// LastSeq returns the journal position (0 for an in-memory manager).
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return 0
	}
	return m.log.LastSeq()
}

// Persistent reports whether the manager journals its commands.
func (m *Manager) Persistent() bool { return m.log != nil }

// Create validates the spec, composes the session, and journals the
// creation. The session is live (state applied) even when journaling
// fails — the caller sees the error and the process is expected to die,
// exactly like a crash between apply and log.
func (m *Manager) Create(spec CreateSpec) (*Managed, error) {
	return m.CreateCtx(context.Background(), spec)
}

// CreateCtx is Create under a context: a trace carried by the context
// records the composition and journal-append spans of the creation.
func (m *Manager) CreateCtx(ctx context.Context, spec CreateSpec) (*Managed, error) {
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("%ss%d", m.cfg.IDPrefix, m.seq)
	m.mu.Unlock()
	ms, err := m.build(id, spec, "")
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessions[id] = ms
	return ms, m.journalTraced(ctx, walEvent{Op: "create", ID: id, Create: m.createRecordFor(ms.region, &spec)}, nil)
}

// journalTraced wraps journalCommand in a "journal.append" span when the
// context carries a trace. Callers hold m.mu.
func (m *Manager) journalTraced(ctx context.Context, ev walEvent, rec json.RawMessage) error {
	sp := trace.FromContext(ctx).StartSpan("journal.append", trace.Str("op", ev.Op))
	err := m.journalCommand(ev, rec)
	if err != nil {
		sp.End(trace.Str("outcome", "error"))
		return err
	}
	sp.End()
	return nil
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Managed, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	return ms, ok
}

// List returns every session, sorted by ID.
func (m *Manager) List() []*Managed {
	m.mu.Lock()
	all := make([]*Managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		all = append(all, ms)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	return all
}

// Delete tears a session down — detaching it from its class, which
// releases its hold on the shared overlay — and journals the deletion.
// It reports whether the session existed.
func (m *Manager) Delete(id string) (bool, error) {
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	m.mu.Lock()
	_, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return false, nil
	}
	delete(m.sessions, id)
	m.mu.Unlock()
	detachErr := m.storm.DetachSession(id)
	m.mu.Lock()
	err := m.journalCommand(walEvent{Op: "delete", ID: id}, nil)
	m.mu.Unlock()
	if err == nil {
		err = detachErr
	}
	return true, err
}

// Close snapshots (compacting the journal to the live sessions) and
// closes the log. Sessions stay usable in memory.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	err := m.snapshotLocked()
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// ID returns the session's identifier.
func (ms *Managed) ID() string { return ms.id }

// Net returns the session's region overlay, shared with every session
// created over the same infrastructure.
func (ms *Managed) Net() *overlay.Network { return ms.net }

// Held returns the session's live bandwidth reservations.
func (ms *Managed) Held() []overlay.Reservation {
	v, _ := ms.m.storm.MemberState(ms.id)
	return v.Held
}

// Reevaluate advances the session one step and re-evaluates its chain,
// journaling the command. evalErr is the session-level outcome (part of
// the deterministic state machine, surfaced to the client); logErr is a
// durability failure.
func (ms *Managed) Reevaluate() (changed bool, evalErr, logErr error) {
	return ms.ReevaluateCtx(context.Background())
}

// ReevaluateCtx is Reevaluate under a context: a trace carried by the
// context records the command's journal span. The command is
// attributed to the "manual" reason; fault handling and the storm
// controller use ReevaluateReasonCtx.
func (ms *Managed) ReevaluateCtx(ctx context.Context) (changed bool, evalErr, logErr error) {
	return ms.ReevaluateReasonCtx(ctx, ReevalManual)
}

// ReevaluateReason is Reevaluate with an explicit cause attribution —
// one of ReevalManual, ReevalFault or ReevalStorm — journaled with the
// command and surfaced in the failover.reevaluate_* counters.
func (ms *Managed) ReevaluateReason(reason string) (changed bool, evalErr, logErr error) {
	return ms.ReevaluateReasonCtx(context.Background(), reason)
}

// FailoverStatus is a managed session's degradation state, as its
// storm class reports it.
type FailoverStatus struct {
	// Enabled is always true: every managed session degrades gracefully.
	Enabled bool `json:"enabled"`
	// Degraded is true while the session's class runs below its QoS
	// floor, or keeps its last chain because nothing composes.
	Degraded bool `json:"degraded"`
	// Failovers stays 0; the field keeps the session state's JSON
	// layout, which crash fingerprints pin.
	Failovers int `json:"failovers"`
}

// State is the externally visible, deterministic state of one managed
// session — what /v1/sessions serves and what the crash harness compares
// byte-for-byte across a crash and recovery.
type State struct {
	ID             string             `json:"id"`
	Path           []string           `json:"path"`
	Formats        []string           `json:"formats"`
	Satisfaction   float64            `json:"satisfaction"`
	Cost           float64            `json:"cost"`
	Step           int                `json:"step"`
	Recompositions int                `json:"recompositions"`
	Failover       FailoverStatus     `json:"failover"`
	DownHosts      []string           `json:"downHosts,omitempty"`
	DownServices   []string           `json:"downServices,omitempty"`
	History        []Change           `json:"history,omitempty"`
	Reserved       map[string]float64 `json:"reserved,omitempty"`
	Counters       map[string]int64   `json:"counters,omitempty"`
}

// State snapshots the session from its class membership: the class
// plan it rides, its own hold, and its region's down hosts and
// services. History stays empty: chain swaps are counted in
// Recompositions.
func (ms *Managed) State() State {
	v, _ := ms.m.storm.MemberState(ms.id)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	st := State{
		ID:             ms.id,
		Satisfaction:   v.Satisfaction,
		Cost:           v.Cost,
		Step:           ms.step,
		Recompositions: v.Swaps,
		Failover:       FailoverStatus{Enabled: true, Degraded: v.Degraded},
		DownHosts:      ms.net.DownHosts(),
		Counters:       ms.counters.Snapshot(),
	}
	sort.Strings(st.DownHosts)
	for _, id := range v.Path {
		st.Path = append(st.Path, string(id))
	}
	for _, f := range v.Formats {
		st.Formats = append(st.Formats, f.String())
	}
	for _, id := range ms.pool.Down() {
		st.DownServices = append(st.DownServices, string(id))
	}
	if len(v.Held) > 0 {
		st.Reserved = make(map[string]float64, len(v.Held))
		for _, r := range v.Held {
			st.Reserved[r.From+"->"+r.To] += r.Kbps
		}
	}
	return st
}

// Fingerprint renders the session state as canonical JSON — the
// byte-identity token the crash harness compares across restarts.
func (ms *Managed) Fingerprint() (string, error) {
	data, err := json.Marshal(ms.State())
	return string(data), err
}
