// Package storm implements mass re-composition: when a backbone event
// degrades many links at once, re-running the paper's Select once per
// affected session is O(sessions × Select) — a thundering herd. Most
// sessions are indistinguishable to the planner: they share a device
// profile, content, network region and QoS floor, so the chain Select
// would pick for one is the chain it would pick for all. The storm
// controller groups sessions into equivalence classes keyed by exactly
// that fingerprint, runs Select once per class against the class graph
// as the overlay is now (graph.Cache.BuildEx re-annotates every edge in
// place when the overlay moved, rebuilds when its connectivity did), and
// fans the chosen chain out to every member with an atomic per-session
// hold swap (overlay.SwapChain — release old, acquire new, never a
// partial).
//
// Robustness properties:
//
//   - One critical section per storm: Storm holds the controller lock
//     from absorbing the pending set until its report is stored, so
//     every other call — readers included — sees a storm whole or not
//     at all, and no class graph is refreshed under a running Select.
//   - Serial re-planning: one loop walks the affected classes in
//     priority order, one Select per class. Select is a deterministic
//     pass over one network snapshot, so a storm replays identically
//     and never needs more than one planner.
//   - Priority ordering: classes furthest below their QoS floor after
//     the event re-plan first.
//   - Graceful degradation: when no above-floor chain exists for a
//     class the best below-floor chain is adopted (core.ErrBelowFloor);
//     when no chain exists at all, members keep their old holds rather
//     than being dropped.
//   - Crash safety: each storm is one record the embedding host
//     journals in the same batch as the command that caused it (see
//     journal.go), so the journal never holds part of a storm. A crash
//     before that record is durable leaves the command's changes
//     pending, and the next Storm re-plans them from state.
//
// The controller owns every reservation it manages. Graph freshness
// needs no bookkeeping — the overlay's generation counter tells the
// cache when to re-annotate — but a storm re-plans only the classes its
// pending set touches, so events that should trigger a re-plan must be
// reported via NotePending (or SetServiceDown for the region's service
// pool).
package storm

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/fault"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// Region is one overlay deployment the controller plans within: its
// live network, its deployed services, and the hosts the endpoints sit
// on. Regions are infrastructure, not journaled state — the embedder
// reconstructs them (fresh topology) on replay, before its own
// commands re-apply the mutations on top.
type Region struct {
	Name         string
	Net          *overlay.Network
	Services     []*service.Service
	SenderHost   string
	ReceiverHost string
}

// Config assembles a Controller.
type Config struct {
	// Verify runs the naive per-session equivalence check: each class
	// plan also builds a cold graph (graph.Build) of the overlay it
	// planned against, Select is re-run on it for every member, and the
	// result is compared with the class plan. The storm report counts
	// any mismatch. Expensive — harness use only.
	Verify bool
	// CacheSize bounds the graph cache; <= 0 selects
	// graph.DefaultCacheSize (64).
	CacheSize int
	// Counters receives storm.* metrics; nil is a no-op sink.
	Counters *metrics.Counters
}

// ClassSpec is the equivalence-class fingerprint: everything the
// planner consumes that distinguishes one session population from
// another. Two sessions with equal specs would always be handed the
// same chain, which is what makes planning once per class sound.
type ClassSpec struct {
	// Region names the network region the class lives in.
	Region string `json:"region"`
	// Content/Device are the endpoints' profiles.
	Content profile.Content `json:"content"`
	Device  profile.Device  `json:"device"`
	// User carries the satisfaction preferences; Contact selects the
	// per-contact override set.
	User    profile.User         `json:"user"`
	Contact profile.ContactClass `json:"contact,omitempty"`
	// Floor is the class's QoS floor (minimum acceptable satisfaction).
	Floor float64 `json:"floor,omitempty"`
}

// Key derives the class's stable identity: the region name plus a hash
// of the canonical JSON encoding of the spec (Go marshals maps with
// sorted keys, so the encoding is deterministic).
func (s *ClassSpec) Key() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A spec that cannot marshal cannot be journaled either;
		// AddClass rejects it before the key is ever used.
		return s.Region + "-unmarshalable"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%s-%016x", s.Region, h.Sum64())
}

// Class is one live equivalence class: the planning inputs derived from
// its spec and the chain currently fanned out to its members.
type Class struct {
	spec   ClassSpec
	key    string
	selcfg core.Config
	in     graph.Input

	current  *core.Result
	kbps     float64
	degraded bool
	members  []*Session

	// svcGen is the region service-set generation cls.in.Services was
	// derived at; a service fault bumps the region's and the class
	// re-derives its alive services before the next Select.
	svcGen uint64
}

// Key returns the class's stable identity.
func (c *Class) Key() string { return c.key }

// Members returns how many sessions are attached.
func (c *Class) Members() int { return len(c.members) }

// Chain renders the class's current chain.
func (c *Class) Chain() string {
	if c.current == nil || !c.current.Found {
		return ""
	}
	return core.PathString(c.current.Path)
}

// Satisfaction returns the class chain's satisfaction.
func (c *Class) Satisfaction() float64 {
	if c.current == nil {
		return 0
	}
	return c.current.Satisfaction
}

// Degraded reports whether the class runs below its floor.
func (c *Class) Degraded() bool { return c.degraded }

// Session is one class member: its identity and the chain hold it
// currently owns on the region overlay. A non-reserving member rides
// the class chain without holding bandwidth.
type Session struct {
	ID      string
	class   *Class
	reserve bool
	held    []overlay.Reservation
	// degraded is written only by Controller.setDegradedLocked, which
	// keeps the controller's degraded tally.
	degraded bool
	swaps    int // successful chain swaps fanned out to this member
}

// region is a Region plus the lookups the controller derives from it.
type region struct {
	Region
	hostOf map[service.ID]string
	// pool is the region's live service directory; svcGen counts its
	// changes (see Class.svcGen).
	pool   *fault.ServiceSet
	svcGen uint64
	// pending is the changed-link set of events not yet absorbed by a
	// storm.
	pending map[overlay.LinkRef]bool
}

// Controller is the storm controller. See the package comment.
type Controller struct {
	// mu guards every field below and the class graphs the cache hands
	// out; each exported method holds it for its whole run, a storm
	// included.
	mu      sync.Mutex
	cfg     Config
	cache   *graph.Cache
	regions map[string]*region
	classes map[string]*Class
	order   []string // class keys in creation order (deterministic walks)
	// memberIdx resolves a member session ID to its Session across all
	// classes — the lookup the session manager uses for detach
	// and per-session state.
	memberIdx map[string]*Session

	// flights is the storm flight recorder (see flight.go). Diagnostic
	// only: excluded from Fingerprint and rebuilt from the same WAL
	// records the state machine replays.
	flights flightRecorder
	// qos is the SLO burn-rate window (see qos.go); guarded by mu.
	qos qosState

	stormSeq int
	// degradedSessions counts the attached members whose degraded flag
	// is set (see setDegradedLocked).
	degradedSessions int
	naiveChecks      int
	naiveMismatches  int
	lastReport       *Report
	replaying        bool
	// replan holds the classes NoteReplan marked for the next Storm.
	replan map[string]bool
	// legacy collects a pre-single-record storm between its begin and
	// end records during replay (see journal.go).
	legacy *record
}

// Open builds an in-memory controller over the given regions; more
// regions may register later through EnsureRegion.
func Open(cfg Config, regions []Region) (*Controller, error) {
	c := &Controller{
		cfg:       cfg,
		cache:     graph.NewCache(cfg.CacheSize),
		regions:   make(map[string]*region),
		classes:   make(map[string]*Class),
		memberIdx: make(map[string]*Session),
		replan:    make(map[string]bool),
	}
	for _, r := range regions {
		if err := c.addRegionLocked(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Controller) addRegionLocked(r Region) error {
	if r.Name == "" || r.Net == nil {
		return fmt.Errorf("storm: region needs a name and a network")
	}
	if _, dup := c.regions[r.Name]; dup {
		return fmt.Errorf("storm: duplicate region %q", r.Name)
	}
	hostOf := make(map[service.ID]string, len(r.Services))
	for _, svc := range r.Services {
		hostOf[svc.ID] = svc.Host
	}
	c.regions[r.Name] = &region{
		Region:  r,
		hostOf:  hostOf,
		pool:    fault.NewServiceSet(r.Services),
		pending: make(map[overlay.LinkRef]bool),
	}
	return nil
}

// EnsureRegion registers a region at runtime; a region with the same
// name already registered is left untouched (the daemon derives regions
// from session profiles, so the same region arrives once per session).
// Regions are infrastructure, never journaled — the host re-derives
// them during its own replay.
func (c *Controller) EnsureRegion(r Region) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regions[r.Name]; ok {
		return nil
	}
	return c.addRegionLocked(r)
}

// HasRegion reports whether a region is registered.
func (c *Controller) HasRegion(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.regions[name]
	return ok
}

// Regions lists registered region names in sorted order.
func (c *Controller) Regions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.regions))
	for name := range c.regions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegionNet returns a region's overlay network (nil when unknown) —
// the ledger the zero-leak audits compare HeldKbps against.
func (c *Controller) RegionNet(name string) *overlay.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.regions[name]; ok {
		return r.Net
	}
	return nil
}

// RegionServices returns a region's live service directory (nil when
// unknown) — what the daemon reports as a session's down services.
func (c *Controller) RegionServices(name string) *fault.ServiceSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.regions[name]; ok {
		return r.pool
	}
	return nil
}

// SetServiceDown (de)registers one service in a region's pool and
// marks its host's links pending, so the next storm re-plans every
// class whose chain runs through the host (and gives degraded classes
// their recovery chance). Classes re-derive their alive services lazily,
// before their next Select.
func (c *Controller) SetServiceDown(regionName string, id service.ID, down bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[regionName]
	if !ok {
		return fmt.Errorf("storm: unknown region %q", regionName)
	}
	r.pool.SetServiceDown(id, down)
	r.svcGen++
	if host, ok := r.hostOf[id]; ok {
		notePendingLocked(r, r.Net.LinksOf(host))
	}
	return nil
}

// AddClass registers and plans one equivalence class: the class graph
// is built, Select runs once, and the chosen chain becomes the chain
// every subsequently attached member receives. A below-floor best chain
// is adopted degraded; no chain at all rejects the class.
func (c *Controller) AddClass(spec ClassSpec) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addClassLocked(spec)
}

func (c *Controller) addClassLocked(spec ClassSpec) (*Class, error) {
	r, ok := c.regions[spec.Region]
	if !ok {
		return nil, fmt.Errorf("storm: unknown region %q", spec.Region)
	}
	key := spec.Key()
	if _, dup := c.classes[key]; dup {
		return nil, fmt.Errorf("storm: duplicate class %s", key)
	}
	prof, err := spec.User.SatisfactionProfile(spec.Contact)
	if err != nil {
		return nil, fmt.Errorf("storm: class %s: %w", key, err)
	}
	cls := &Class{
		spec: spec,
		key:  key,
		selcfg: core.Config{
			Profile:           prof,
			Budget:            spec.User.Budget,
			ReceiverCaps:      spec.Device.RenderCaps(),
			SatisfactionFloor: spec.Floor,
		},
	}
	cls.in = graph.Input{
		Content:      &cls.spec.Content,
		Device:       &cls.spec.Device,
		Services:     r.services(),
		Net:          r.Net,
		SenderHost:   r.SenderHost,
		ReceiverHost: receiverHost(&r.Region, &cls.spec),
	}
	g, err := c.cache.Build(cls.in)
	if err != nil {
		return nil, fmt.Errorf("storm: class %s: %w", key, err)
	}
	res, err := core.Select(g, cls.selcfg)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrBelowFloor) && res != nil && res.Found:
		cls.degraded = true
	default:
		return nil, fmt.Errorf("storm: class %s: %w", key, err)
	}
	cls.current = res
	cls.kbps = requiredKbps(cls.selcfg, res)
	cls.svcGen = r.svcGen
	c.classes[key] = cls
	c.order = append(c.order, key)
	return cls, nil
}

// receiverHost resolves the overlay host a class's receiver sits on: the
// region-wide receiver when the region declares one, otherwise the
// device ID — the daemon's convention, where each device profile is its
// own leaf host on the region overlay.
func receiverHost(r *Region, spec *ClassSpec) string {
	if r.ReceiverHost != "" {
		return r.ReceiverHost
	}
	return spec.Device.ID
}

// EnsureClass returns the class for the spec, registering and planning
// it on first sight. The daemon calls this on every session create;
// only the first member of a fingerprint pays for a Select.
func (c *Controller) EnsureClass(spec ClassSpec) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cls, ok := c.classes[spec.Key()]; ok {
		return cls, nil
	}
	cls, err := c.addClassLocked(spec)
	if err != nil {
		return nil, err
	}
	c.refreshGaugesLocked()
	return cls, nil
}

// Attach adds n member sessions to the class and reserves the class
// chain for each (one atomic ReserveChain per member). A member whose
// reservation is refused — the region filled up between plans — is
// attached degraded, holding nothing, rather than rejected: the next
// storm or recovery event re-plans it with everyone else.
func (c *Controller) Attach(key string, n int) ([]*Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cls, ok := c.classes[key]
	if !ok {
		return nil, fmt.Errorf("storm: unknown class %s", key)
	}
	if n <= 0 {
		return nil, fmt.Errorf("storm: attach count %d < 1", n)
	}
	out := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.attachOneLocked(cls, fmt.Sprintf("%s#%d", key, len(cls.members)), true))
	}
	c.refreshGaugesLocked()
	return out, nil
}

// attachOneLocked attaches a single member with the given ID and, when
// reserve is set, reserves the class chain for it; a refused
// reservation degrades the member instead of rejecting it.
func (c *Controller) attachOneLocked(cls *Class, id string, reserve bool) *Session {
	r := c.regions[cls.spec.Region]
	s := &Session{ID: id, class: cls, reserve: reserve}
	degraded := cls.degraded
	if rs := c.chainReservations(cls); reserve && len(rs) > 0 {
		hold := append([]overlay.Reservation(nil), rs...)
		if err := r.Net.ReserveChain(hold); err == nil {
			s.held = hold
		} else {
			degraded = true
		}
	}
	c.setDegradedLocked(s, degraded)
	cls.members = append(cls.members, s)
	c.memberIdx[id] = s
	c.qosMemberLocked(s, cls.Satisfaction())
	return s
}

// setDegradedLocked is the one writer of a member's degraded flag: it
// keeps c.degradedSessions equal to the number of attached members with
// the flag set, so no reader recounts them.
func (c *Controller) setDegradedLocked(s *Session, degraded bool) {
	if s.degraded == degraded {
		return
	}
	s.degraded = degraded
	if degraded {
		c.degradedSessions++
	} else {
		c.degradedSessions--
	}
}

// AttachSession attaches one member with a caller-chosen ID — the
// daemon's session ID, so the storm tier and the session manager agree
// on identity. reserve selects whether the member holds the class
// chain's bandwidth on the region overlay.
func (c *Controller) AttachSession(key, id string, reserve bool) (*Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cls, ok := c.classes[key]
	if !ok {
		return nil, fmt.Errorf("storm: unknown class %s", key)
	}
	if id == "" {
		return nil, fmt.Errorf("storm: attach needs a session ID")
	}
	if _, dup := c.memberIdx[id]; dup {
		return nil, fmt.Errorf("storm: duplicate member %s", id)
	}
	s := c.attachOneLocked(cls, id, reserve)
	c.refreshGaugesLocked()
	c.cfg.Counters.Observe(metrics.SampleStormMembersPerClass, float64(len(cls.members)))
	return s, nil
}

// DetachSession releases a member's hold and removes it from its class.
// The class itself stays registered — an empty class is cheap and keeps
// its plan warm for the next attach.
func (c *Controller) DetachSession(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.memberIdx[id]
	if !ok {
		return fmt.Errorf("storm: unknown member %s", id)
	}
	cls := s.class
	r := c.regions[cls.spec.Region]
	if len(s.held) > 0 {
		r.Net.ReleaseChain(s.held)
		s.held = nil
	}
	for i, m := range cls.members {
		if m == s {
			cls.members = append(cls.members[:i], cls.members[i+1:]...)
			break
		}
	}
	delete(c.memberIdx, id)
	c.setDegradedLocked(s, false)
	c.qosPublishLocked()
	c.refreshGaugesLocked()
	return nil
}

// MemberView is the per-session state the daemon surfaces for an
// attached member: the class plan it rides plus its own hold.
type MemberView struct {
	ID           string
	ClassKey     string
	Region       string
	Chain        string
	Path         []graph.NodeID
	Formats      []media.Format
	Satisfaction float64
	Cost         float64
	Kbps         float64
	Degraded     bool
	Swaps        int
	Held         []overlay.Reservation
}

// MemberState returns the view for one attached member.
func (c *Controller) MemberState(id string) (MemberView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.memberIdx[id]
	if !ok {
		return MemberView{}, false
	}
	cls := s.class
	v := MemberView{
		ID:           id,
		ClassKey:     cls.key,
		Region:       cls.spec.Region,
		Chain:        cls.Chain(),
		Satisfaction: cls.Satisfaction(),
		Kbps:         cls.kbps,
		Degraded:     s.degraded,
		Swaps:        s.swaps,
		Held:         append([]overlay.Reservation(nil), s.held...),
	}
	if cls.current != nil && cls.current.Found {
		v.Path = append([]graph.NodeID(nil), cls.current.Path...)
		v.Formats = append([]media.Format(nil), cls.current.Formats...)
		v.Cost = cls.current.Cost
	}
	return v, true
}

// NotePending reports that an external event (fault injection, a real
// network monitor) changed the QoS of the given links in a region. The
// links are marked pending for the next Storm. Nothing is journaled:
// the host journals the event that caused the change and re-derives the
// link set during its own replay.
func (c *Controller) NotePending(regionName string, links []overlay.LinkRef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[regionName]
	if !ok {
		return fmt.Errorf("storm: unknown region %q", regionName)
	}
	notePendingLocked(r, links)
	return nil
}

func notePendingLocked(r *region, links []overlay.LinkRef) {
	for _, l := range links {
		r.pending[l] = true
	}
}

// services returns the region's alive services — the declared list
// itself until a service fault first changes the pool.
func (r *region) services() []*service.Service {
	if r.svcGen == 0 {
		return r.Services
	}
	return r.pool.Alive()
}

// refreshGaugesLocked re-publishes the class-skew gauge: how many
// classes currently have at least one attached member.
func (c *Controller) refreshGaugesLocked() {
	cc := c.cfg.Counters
	if cc == nil {
		return
	}
	attached := 0
	for _, cls := range c.classes {
		if len(cls.members) > 0 {
			attached++
		}
	}
	cc.SetGauge(metrics.GaugeStormClassesAttached, float64(attached))
}

// chainReservations renders the class's current chain as the per-link
// reservations one member holds (consecutive distinct hosts, class
// bitrate each). Empty when the class has no chain or needs no
// bandwidth.
func (c *Controller) chainReservations(cls *Class) []overlay.Reservation {
	if cls.current == nil || !cls.current.Found || cls.kbps <= 0 {
		return nil
	}
	hosts := c.chainHosts(cls)
	rs := make([]overlay.Reservation, 0, len(hosts)-1)
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1] == hosts[i] {
			continue
		}
		rs = append(rs, overlay.Reservation{From: hosts[i-1], To: hosts[i], Kbps: cls.kbps})
	}
	return rs
}

// chainHosts returns the ordered hosts of the class chain (sender,
// service hosts, receiver).
func (c *Controller) chainHosts(cls *Class) []string {
	r := c.regions[cls.spec.Region]
	hosts := []string{r.SenderHost}
	for _, id := range cls.current.Path[1 : len(cls.current.Path)-1] {
		if h, ok := r.hostOf[service.ID(id)]; ok {
			hosts = append(hosts, h)
		}
	}
	return append(hosts, receiverHost(&r.Region, &cls.spec))
}

// OnFaults is the fault-injection adapter: it reduces a batch of fired
// faults to their changed-link set (fault.ChangedLinks) and reports it
// for the region. The returned count is how many links changed.
func (c *Controller) OnFaults(regionName string, fired []fault.Fault) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[regionName]
	if !ok {
		return 0, fmt.Errorf("storm: unknown region %q", regionName)
	}
	links := fault.ChangedLinks(fired, r.Net)
	notePendingLocked(r, links)
	return len(links), nil
}

// requiredKbps converts a planned chain's delivered parameters into the
// bitrate one member must reserve.
func requiredKbps(cfg core.Config, res *core.Result) float64 {
	if res == nil || !res.Found {
		return 0
	}
	model := cfg.Bitrate
	if model == nil {
		model = media.DefaultBitrate
	}
	return model.RequiredKbps(res.Params)
}

// classKbps recomputes the member bitrate for a fresh plan result.
func (cls *Class) planKbps(res *core.Result) float64 {
	return requiredKbps(cls.selcfg, res)
}

// Classes returns the number of registered classes.
func (c *Controller) Classes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.classes)
}

// Sessions returns the number of attached member sessions.
func (c *Controller) Sessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cls := range c.classes {
		n += len(cls.members)
	}
	return n
}

// Class returns a registered class by key.
func (c *Controller) Class(key string) (*Class, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cls, ok := c.classes[key]
	return cls, ok
}

// HeldKbps sums the chain holds of every member in the region — the
// number that must equal the overlay's TotalReservedKbps when the
// controller owns all reservations (the zero-leak audit).
func (c *Controller) HeldKbps(regionName string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, key := range c.order {
		cls := c.classes[key]
		if cls.spec.Region != regionName {
			continue
		}
		for _, s := range cls.members {
			for _, res := range s.held {
				total += res.Kbps
			}
		}
	}
	return total
}

// CacheStats exposes the planner cache counters (in-place refreshes vs
// rebuilds).
func (c *Controller) CacheStats() graph.CacheStats { return c.cache.Stats() }

// Fingerprint renders the controller's deterministic state — every
// class's chain and every member's holds — as canonical JSON, the
// byte-identity token the crash tests compare across restarts.
func (c *Controller) Fingerprint() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type memberState struct {
		ID       string                `json:"id"`
		Held     []overlay.Reservation `json:"held,omitempty"`
		Degraded bool                  `json:"degraded,omitempty"`
	}
	type classState struct {
		Key          string        `json:"key"`
		Chain        string        `json:"chain"`
		Satisfaction float64       `json:"satisfaction"`
		Kbps         float64       `json:"kbps"`
		Degraded     bool          `json:"degraded"`
		Members      []memberState `json:"members,omitempty"`
	}
	out := make([]classState, 0, len(c.order))
	for _, key := range c.order {
		cls := c.classes[key]
		cs := classState{
			Key: key, Chain: cls.Chain(), Satisfaction: cls.Satisfaction(),
			Kbps: cls.kbps, Degraded: cls.degraded,
		}
		for _, s := range cls.members {
			cs.Members = append(cs.Members, memberState{ID: s.ID, Held: s.held, Degraded: s.degraded})
		}
		out = append(out, cs)
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// Status is the operator view exposed on /healthz.
type Status struct {
	Regions          int     `json:"regions"`
	Classes          int     `json:"classes"`
	Sessions         int     `json:"sessions"`
	Storms           int     `json:"storms"`
	PendingLinks     int     `json:"pendingLinks"`
	DegradedSessions int     `json:"degradedSessions"`
	LastStorm        *Report `json:"lastStorm,omitempty"`
	// LastFlight summarizes the newest flight-recorder timeline.
	LastFlight *FlightSummary `json:"lastFlight,omitempty"`
}

// Status snapshots the controller for /healthz.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Regions:          len(c.regions),
		Classes:          len(c.classes),
		Storms:           c.stormSeq,
		DegradedSessions: c.degradedSessions,
		LastStorm:        c.lastReport,
		LastFlight:       c.flights.summary(),
	}
	for _, r := range c.regions {
		st.PendingLinks += len(r.pending)
	}
	for _, cls := range c.classes {
		st.Sessions += len(cls.members)
	}
	return st
}

// sortLinks renders a link set deterministically.
func sortLinks(set map[overlay.LinkRef]bool) []overlay.LinkRef {
	out := make([]overlay.LinkRef, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// now is stubbed in tests that need deterministic reports.
var now = time.Now
