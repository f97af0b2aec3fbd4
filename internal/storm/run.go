package storm

// run.go is the storm execution engine: given the pending changed-link
// set, it computes the affected classes, scores and orders them by how
// far below their floor the event pushed them, and re-plans each class
// exactly once — Select per class, atomic hold swap per member.

import (
	"errors"
	"fmt"
	"sort"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
)

// Class plan outcomes.
const (
	// OutcomeUnchanged: the repaired graph still prefers the class's
	// current chain; members keep their holds untouched.
	OutcomeUnchanged = "unchanged"
	// OutcomeReplanned: a fresh at-or-above-floor chain was adopted and
	// fanned out.
	OutcomeReplanned = "replanned"
	// OutcomeDegraded: only a below-floor chain exists; it was adopted
	// (graceful degradation) and fanned out.
	OutcomeDegraded = "degraded"
	// OutcomeNoChain: nothing composes at all; members keep their old
	// holds and the class is marked degraded.
	OutcomeNoChain = "no-chain"
)

// ClassOutcome is one class's storm result.
type ClassOutcome struct {
	Key          string  `json:"key"`
	Members      int     `json:"members"`
	Gap          float64 `json:"gap"`
	Outcome      string  `json:"outcome"`
	Chain        string  `json:"chain,omitempty"`
	Satisfaction float64 `json:"satisfaction"`
	SwapFailed   int     `json:"swapFailed,omitempty"`
}

// Report summarises one storm.
type Report struct {
	Storm            int            `json:"storm"`
	ChangedLinks     int            `json:"changedLinks"`
	AffectedClasses  int            `json:"affectedClasses"`
	AffectedSessions int            `json:"affectedSessions"`
	SelectCalls      int            `json:"selectCalls"`
	SelectPerSession float64        `json:"selectPerSession"`
	Replanned        int            `json:"replanned"`
	Unchanged        int            `json:"unchangedClasses"`
	DegradedSessions int            `json:"degradedSessions"`
	SwapFailed       int            `json:"swapFailed"`
	NaiveChecks      int            `json:"naiveChecks,omitempty"`
	Mismatches       int            `json:"mismatches,omitempty"`
	RecoveryMs       float64        `json:"recoveryMs"`
	Resumed          bool           `json:"resumed,omitempty"`
	Classes          []ClassOutcome `json:"classes,omitempty"`
}

// planItem is one affected class queued for re-planning.
type planItem struct {
	cls *Class
	gap float64
}

// ErrStormActive rejects overlapping Storm calls, and any Storm while a
// replayed begin-without-end is still waiting on ResumeOpenStorm —
// starting a fresh storm there would orphan the open storm's remainder.
var ErrStormActive = errors.New("storm: a storm is already running")

// ErrHalted reports that Config.HaltAfterFanouts aborted the storm —
// the deterministic stand-in for a process death mid-fan-out.
var ErrHalted = errors.New("storm: halted mid-storm by HaltAfterFanouts")

// Storm absorbs the pending changed-link set and re-plans every
// affected class — once per class, not once per session. Affected means
// the class's chain crosses a changed link, the class was already
// degraded (a recovery chance), or it has no chain at all. Classes
// re-plan in priority order: furthest below their QoS floor first.
// Returns the report; a nil report with nil error means nothing was
// pending.
func (c *Controller) Storm() (*Report, error) {
	start := now()
	c.mu.Lock()
	if c.active || c.openStorm != nil {
		c.mu.Unlock()
		return nil, ErrStormActive
	}
	changed := make(map[string][]overlay.LinkRef)
	totalLinks := 0
	for name, r := range c.regions {
		if len(r.pending) > 0 {
			changed[name] = sortLinks(r.pending)
			totalLinks += len(r.pending)
			r.pending = make(map[overlay.LinkRef]bool)
		}
	}
	if totalLinks == 0 {
		c.mu.Unlock()
		return nil, nil
	}
	c.stormSeq++
	c.active = true
	c.fanouts = 0
	seq := c.stormSeq

	items := c.scoreLocked(c.affectedLocked(changed))
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.cls.key
	}
	if err := c.journalLocked(kindStormBegin, beginRecord{Storm: seq, Links: changed, Classes: keys}); err != nil {
		c.active = false
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	c.flights.begin(seq, totalLinks, len(items), false)

	rep, err := c.execute(seq, totalLinks, items, false)
	if err != nil {
		return nil, err
	}
	rep.RecoveryMs = float64(now().Sub(start).Microseconds()) / 1000.0
	c.mu.Lock()
	c.lastReport = rep
	c.mu.Unlock()
	c.cfg.Counters.Observe(metrics.SampleStormRecoveryMs, rep.RecoveryMs)
	return rep, nil
}

// execute runs the plan phase over an already-ordered item list and
// closes the storm out. Shared by Storm and crash-resume.
func (c *Controller) execute(seq, totalLinks int, items []planItem, resumed bool) (*Report, error) {
	rep := &Report{Storm: seq, ChangedLinks: totalLinks, AffectedClasses: len(items), Resumed: resumed}
	for _, it := range items {
		rep.AffectedSessions += len(it.cls.members)
	}
	for _, it := range items {
		out, err := c.planOne(seq, it)
		if err != nil {
			c.mu.Lock()
			c.active = false
			c.mu.Unlock()
			return nil, err
		}
		rep.Classes = append(rep.Classes, *out)
		rep.SelectCalls++
		rep.SwapFailed += out.SwapFailed
		switch out.Outcome {
		case OutcomeUnchanged:
			rep.Unchanged++
		case OutcomeReplanned, OutcomeDegraded:
			rep.Replanned += out.Members - out.SwapFailed
		}
	}

	c.mu.Lock()
	c.active = false
	for _, cls := range c.classes {
		for _, s := range cls.members {
			if s.degraded {
				rep.DegradedSessions++
			}
		}
	}
	if rep.AffectedSessions > 0 {
		rep.SelectPerSession = float64(rep.SelectCalls) / float64(rep.AffectedSessions)
	}
	rep.NaiveChecks, rep.Mismatches = c.naiveChecks, c.naiveMismatches
	c.naiveChecks, c.naiveMismatches = 0, 0
	err := c.journalLocked(kindStormEnd, endRecord{Storm: seq})
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.flights.end(seq, false)
	c.cfg.Counters.Inc(metrics.CounterStormEvents)
	c.cfg.Counters.Add(metrics.CounterStormClasses, int64(rep.AffectedClasses))
	return rep, nil
}

// affectedLocked selects the classes a changed-link set touches.
func (c *Controller) affectedLocked(changed map[string][]overlay.LinkRef) []*Class {
	sets := make(map[string]map[overlay.LinkRef]bool, len(changed))
	for name, links := range changed {
		set := make(map[overlay.LinkRef]bool, len(links))
		for _, l := range links {
			set[l] = true
		}
		sets[name] = set
	}
	var out []*Class
	for _, key := range c.order {
		cls := c.classes[key]
		set, ok := sets[cls.spec.Region]
		if !ok {
			continue
		}
		if cls.degraded || c.chainCrosses(cls, set) {
			out = append(out, cls)
		}
	}
	return out
}

// chainCrosses reports whether the class chain rides any link in the
// set. Chain-less classes always count as crossing — they have nothing
// to keep.
func (c *Controller) chainCrosses(cls *Class, set map[overlay.LinkRef]bool) bool {
	if cls.current == nil || !cls.current.Found {
		return true
	}
	hosts := c.chainHosts(cls)
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1] == hosts[i] {
			continue
		}
		if set[overlay.LinkRef{From: hosts[i-1], To: hosts[i]}] {
			return true
		}
	}
	return false
}

// scoreLocked repairs each affected class's graph against the post-event
// network and scores its current chain, producing the priority order:
// descending gap below the floor (a broken chain scores below
// everything), ties broken by key for determinism.
func (c *Controller) scoreLocked(affected []*Class) []planItem {
	items := make([]planItem, 0, len(affected))
	for _, cls := range affected {
		postSat := -1.0 // broken or chain-less: ranks hardest-hit
		if g, err := c.repairLocked(cls); err == nil && cls.current != nil && cls.current.Found {
			if edges, ok := core.PathEdges(g, cls.current); ok {
				if _, sat, _, ok := core.EvalPath(g, cls.selcfg, edges); ok {
					postSat = sat
				}
			}
		}
		items = append(items, planItem{cls: cls, gap: cls.spec.Floor - postSat})
	}
	sortItems(items)
	return items
}

func sortItems(items []planItem) {
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].gap != items[j].gap {
			return items[i].gap > items[j].gap
		}
		return items[i].cls.key < items[j].cls.key
	})
}

// repairLocked incrementally repairs the class graph: only links
// dirtied since the class's last annotation generation are re-queried
// (graph.Cache.BuildRepair). Called with c.mu held.
func (c *Controller) repairLocked(cls *Class) (*graph.Graph, error) {
	r := c.regions[cls.spec.Region]
	if cls.svcGen != r.svcGen {
		// A service fault changed the region's pool since the class last
		// planned: re-derive its alive services (a new cache key, so the
		// build below starts fresh).
		cls.in.Services = r.services()
		cls.svcGen = r.svcGen
	}
	gen := r.Net.Generation()
	var diff []overlay.LinkRef
	for l, at := range r.dirty {
		if at > cls.repairGen {
			diff = append(diff, l)
		}
	}
	g, _, err := c.cache.BuildRepairEx(cls.in, diff)
	if err != nil {
		return nil, err
	}
	cls.repairGen = gen
	return g, nil
}

// planOne re-plans one class: repair the class graph against
// everything dirtied since its last annotation (including earlier
// classes' hold swaps in this same storm), run Select once, fan the
// result out to every member with an atomic hold swap, and journal the
// fan-out.
func (c *Controller) planOne(seq int, it planItem) (*ClassOutcome, error) {
	cls := it.cls
	planStart := now()

	// Annotate the class graph as if the class were absent: its own
	// members' holds are what the re-plan will replace, so they must
	// not count against the availability the planner sees. The holds
	// are released only around the repair and restored exactly — the
	// graph keeps the freed-capacity snapshot, the overlay does not.
	c.mu.Lock()
	saved := c.releaseMembersLocked(cls)
	g, err := c.repairLocked(cls)
	dropped := c.restoreMembersLocked(cls, saved)
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("storm: class %s: %w", cls.key, err)
	}

	res, selErr := core.Select(g, cls.selcfg)
	c.cfg.Counters.Inc(metrics.CounterStormSelectCalls)
	degraded := false
	switch {
	case selErr == nil:
	case errors.Is(selErr, core.ErrBelowFloor) && res != nil && res.Found:
		degraded = true
	default:
		res = nil // nothing composes; keep the old chain
	}

	if c.cfg.Verify && res != nil {
		c.verifyClass(g, cls, res)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.applyPlanLocked(cls, res, degraded)
	out.Gap = it.gap
	rec := classRecord{
		Storm: seq, Key: cls.key, Outcome: out.Outcome,
		Degraded: cls.degraded, Kbps: cls.kbps, Dropped: dropped,
	}
	if res != nil {
		rec.Found = res.Found
		rec.Path = res.Path
		rec.Formats = res.Formats
		rec.Params = res.Params
		rec.Satisfaction = res.Satisfaction
		rec.Cost = res.Cost
	}
	if err := c.journalLocked(kindStormClass, rec); err != nil {
		return nil, err
	}
	c.flights.class(seq, cls.key, out.Outcome, out.Satisfaction, ms(now().Sub(planStart)), false)
	c.fanouts++
	if c.cfg.HaltAfterFanouts > 0 && c.fanouts >= c.cfg.HaltAfterFanouts {
		// The fan-out above is journaled; dying here leaves begin + the
		// completed class records and no end — the mid-storm crash state.
		return nil, ErrHalted
	}
	return out, nil
}

// ReplanClass runs a single-class storm outside a fault event — the
// session manager's manual re-evaluation path. The class re-plans against
// its repaired graph and fans out exactly like a storm of one, sharing
// the journal format so a crash mid-replan resumes identically.
func (c *Controller) ReplanClass(key string) (*Report, error) {
	start := now()
	c.mu.Lock()
	if c.active || c.openStorm != nil {
		c.mu.Unlock()
		return nil, ErrStormActive
	}
	cls, ok := c.classes[key]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("storm: unknown class %s", key)
	}
	c.stormSeq++
	c.active = true
	c.fanouts = 0
	seq := c.stormSeq
	items := c.scoreLocked([]*Class{cls})
	if err := c.journalLocked(kindStormBegin, beginRecord{Storm: seq, Classes: []string{key}}); err != nil {
		c.active = false
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	c.flights.begin(seq, 0, 1, false)

	rep, err := c.execute(seq, 0, items, false)
	if err != nil {
		return nil, err
	}
	rep.RecoveryMs = float64(now().Sub(start).Microseconds()) / 1000.0
	c.mu.Lock()
	c.lastReport = rep
	c.mu.Unlock()
	return rep, nil
}

// releaseMembersLocked lifts every member's hold off the overlay,
// returning the holds for exact restoration. Non-reserving members hold
// nothing and are skipped here and in restoreMembersLocked.
func (c *Controller) releaseMembersLocked(cls *Class) [][]overlay.Reservation {
	r := c.regions[cls.spec.Region]
	saved := make([][]overlay.Reservation, len(cls.members))
	for i, s := range cls.members {
		if len(s.held) > 0 {
			r.Net.ReleaseChain(s.held)
			saved[i] = s.held
		}
	}
	return saved
}

// restoreMembersLocked re-reserves the holds releaseMembersLocked
// lifted. Restoration fails when the event took a held link down or
// shrank it below the standing holds; such a member loses its hold (it
// was dead bandwidth) and is marked degraded — the accounting stays
// exact either way. It returns the members that lost their hold, which
// the class's fan-out record carries so replay drops the same holds.
func (c *Controller) restoreMembersLocked(cls *Class, saved [][]overlay.Reservation) []string {
	r := c.regions[cls.spec.Region]
	var dropped []string
	for i, hold := range saved {
		if len(hold) == 0 {
			continue
		}
		if err := r.Net.ReserveChain(hold); err != nil {
			cls.members[i].held = nil
			cls.members[i].degraded = true
			dropped = append(dropped, cls.members[i].ID)
		}
	}
	return dropped
}

// dropHoldsLocked replays restoreMembersLocked's losses: each named
// member's hold is released and the member marked degraded.
func (c *Controller) dropHoldsLocked(cls *Class, ids []string) {
	r := c.regions[cls.spec.Region]
	for _, id := range ids {
		s, ok := c.memberIdx[id]
		if !ok || s.class != cls {
			continue
		}
		r.Net.ReleaseChain(s.held)
		s.held = nil
		s.degraded = true
	}
}

// verifyClass is the naive-equivalence harness check: Select is re-run
// for every member against the same repaired graph and must return the
// class chain byte-for-byte. Counted separately from storm.select_calls
// — these are the baseline being measured against, not controller work.
func (c *Controller) verifyClass(g *graph.Graph, cls *Class, res *core.Result) {
	want := core.PathString(res.Path)
	for range cls.members {
		naive, err := core.Select(g, cls.selcfg)
		ok := err == nil || (errors.Is(err, core.ErrBelowFloor) && naive != nil && naive.Found)
		match := ok && naive != nil && core.PathString(naive.Path) == want &&
			len(naive.Formats) == len(res.Formats)
		if match {
			for i := range naive.Formats {
				if naive.Formats[i] != res.Formats[i] {
					match = false
					break
				}
			}
		}
		c.mu.Lock()
		c.naiveChecks++
		if !match {
			c.naiveMismatches++
		}
		c.mu.Unlock()
	}
}

// applyPlanLocked installs a plan result on the class and fans it out
// to the members. It is the single mutation path shared by live storms
// and journal replay, which is what keeps a replayed fan-out
// byte-identical to the live one.
func (c *Controller) applyPlanLocked(cls *Class, res *core.Result, degraded bool) *ClassOutcome {
	// SLO accounting fires on every application — live or replayed — so
	// a replica's qos.* series matches the primary's (see qos.go).
	prev := make([]bool, len(cls.members))
	for i, s := range cls.members {
		prev[i] = s.degraded
	}
	defer c.qosApplyLocked(cls, prev)
	out := &ClassOutcome{Key: cls.key, Members: len(cls.members)}
	if res == nil || !res.Found {
		// Graceful degradation floor: nothing composes, members keep
		// their old holds — streaming over a degraded chain beats
		// streaming over nothing.
		cls.degraded = true
		for _, s := range cls.members {
			s.degraded = true
		}
		if !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		out.Outcome = OutcomeNoChain
		out.Chain = cls.Chain()
		out.Satisfaction = cls.Satisfaction()
		return out
	}

	kbps := cls.planKbps(res)
	same := cls.current != nil && cls.current.Found &&
		core.PathString(cls.current.Path) == core.PathString(res.Path) &&
		cls.kbps == kbps
	cls.current = res
	cls.kbps = kbps
	cls.degraded = degraded
	out.Chain = cls.Chain()
	out.Satisfaction = res.Satisfaction
	if same {
		// The repaired graph still prefers the chain the members
		// already hold; their reservations are already exact.
		for _, s := range cls.members {
			s.degraded = degraded
		}
		out.Outcome = OutcomeUnchanged
		if degraded && !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		return out
	}

	r := c.regions[cls.spec.Region]
	newHolds := c.chainReservations(cls)
	for _, s := range cls.members {
		// A non-reserving member holds nothing: it just rides the new
		// chain.
		if s.reserve {
			hold := append([]overlay.Reservation(nil), newHolds...)
			if err := r.Net.SwapChain(s.held, hold); err != nil {
				// Atomicity: the swap released nothing and acquired
				// nothing; the member keeps its old chain, degraded.
				s.degraded = true
				out.SwapFailed++
				continue
			}
			c.markDirtyLocked(r, s.held)
			c.markDirtyLocked(r, hold)
			s.held = hold
		}
		s.degraded = degraded
		s.swaps++
		if !c.replaying {
			c.cfg.Counters.Inc(metrics.CounterStormSessionsReplanned)
			if degraded {
				c.cfg.Counters.Inc(metrics.CounterStormDegraded)
			}
		}
	}
	if degraded {
		out.Outcome = OutcomeDegraded
	} else {
		out.Outcome = OutcomeReplanned
	}
	return out
}
