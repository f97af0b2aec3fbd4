package storm

// run.go is the storm execution engine: given the pending changed-link
// set, it computes the affected classes, scores and orders them by how
// far below their floor the event pushed them, and re-plans each class
// exactly once — Select per class, one atomic hold swap per run of
// members holding identical reservations.

import (
	"encoding/json"
	"errors"
	"slices"
	"sort"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
)

// Class plan outcomes.
const (
	// OutcomeUnchanged: the refreshed graph still prefers the class's
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
	Classes          []ClassOutcome `json:"classes,omitempty"`
}

// planItem is one affected class queued for re-planning.
type planItem struct {
	cls *Class
	gap float64
}

// Storm absorbs the pending changed-link set and re-plans every
// affected class — once per class, not once per session. Affected means
// the class's chain crosses a changed link, the class was already
// degraded (a recovery chance), it has no chain at all, or NoteReplan
// marked it. Classes re-plan in priority order: furthest below their
// QoS floor first. Returns the report and the storm's journal record
// (RecordKind), which the host appends in the same batch as the command
// that caused the storm. The record's bytes are the controller's reused
// encoding buffer: they stay valid until the next Storm, so the host
// journals (copies) them before it storms again. A nil report means no
// class was affected: the pending links are absorbed, and no storm
// sequence, report or record is spent on them (SettlePending reaches
// the same state on replay).
//
// The whole storm is one critical section: c.mu is held from absorbing
// the pending set until the report is stored, so every other controller
// call — a reader included — sees the storm whole or not at all.
func (c *Controller) Storm() (*Report, json.RawMessage, error) {
	start := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	changed, totalLinks := c.pendingLocked()
	affected := c.affectedLocked()
	c.clearPendingLocked()
	if len(affected) == 0 {
		return nil, nil, nil
	}
	items := c.scoreLocked(affected)
	clear(c.replan)
	c.dropped = c.dropped[:0]
	c.stormSeq++
	seq := c.stormSeq

	// The plan phase: every item gets a plan — a class that cannot be
	// planned is recorded no-chain — so a storm never stops part-way.
	c.flights.begin(seq, totalLinks, len(items), false)
	rep := &Report{Storm: seq, ChangedLinks: totalLinks, AffectedClasses: len(items),
		Classes: make([]ClassOutcome, 0, len(items))}
	rec := record{Storm: seq, Links: changed, Plans: make([]classPlan, 0, len(items))}
	for _, it := range items {
		rep.AffectedSessions += len(it.cls.members)
	}
	for _, it := range items {
		out, plan, selected := c.planOneLocked(seq, it)
		rec.Plans = append(rec.Plans, plan)
		rep.Classes = append(rep.Classes, out)
		if selected {
			rep.SelectCalls++
		}
		rep.SwapFailed += out.SwapFailed
		switch out.Outcome {
		case OutcomeUnchanged:
			rep.Unchanged++
		case OutcomeReplanned, OutcomeDegraded:
			rep.Replanned += out.Members - out.SwapFailed
		}
	}

	rep.DegradedSessions = c.degradedSessions
	if rep.AffectedSessions > 0 {
		rep.SelectPerSession = float64(rep.SelectCalls) / float64(rep.AffectedSessions)
	}
	rep.NaiveChecks, rep.Mismatches = c.naiveChecks, c.naiveMismatches
	c.naiveChecks, c.naiveMismatches = 0, 0
	rep.RecoveryMs = float64(now().Sub(start).Microseconds()) / 1000.0
	c.lastReport = rep
	c.flights.end(seq, false)
	c.cfg.Counters.Inc(metrics.CounterStormEvents)
	c.cfg.Counters.Add(metrics.CounterStormClasses, int64(rep.AffectedClasses))
	c.cfg.Counters.Observe(metrics.SampleStormRecoveryMs, rep.RecoveryMs)
	data, err := c.enc.encode(&rec)
	return rep, data, err
}

// SettlePending absorbs the pending changed-link set when it affects
// no class — what Storm does with such a set, leaving no report and no
// record behind. The host calls it after replaying a command that ran a
// storm live, so recovery reaches the pending set the live run left: an
// empty storm's links do not linger, while links whose storm record was
// lost stay pending for the next Storm.
func (c *Controller) SettlePending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.affectedLocked()) == 0 {
		c.clearPendingLocked()
	}
}

// pendingLocked renders every region's pending set, sorted, with the
// total number of links. The map and the sorted slices are reused by
// the next call; the storm record holding them is encoded before that.
func (c *Controller) pendingLocked() (map[string][]overlay.LinkRef, int) {
	if c.changed == nil {
		c.changed = make(map[string][]overlay.LinkRef)
	}
	clear(c.changed)
	total := 0
	for name, r := range c.regions {
		if len(r.pending) > 0 {
			r.sorted = appendSortedLinks(r.sorted[:0], r.pending)
			c.changed[name] = r.sorted
			total += len(r.pending)
		}
	}
	return c.changed, total
}

func (c *Controller) clearPendingLocked() {
	for _, r := range c.regions {
		clear(r.pending)
	}
}

// affectedLocked selects the classes the pending changed-link sets
// touch, plus the classes NoteReplan marked, into a slice the next call
// reuses.
func (c *Controller) affectedLocked() []*Class {
	out := c.affected[:0]
	for _, key := range c.order {
		cls := c.classes[key]
		if c.replan[key] {
			out = append(out, cls)
			continue
		}
		set := c.regions[cls.spec.Region].pending
		if len(set) == 0 {
			continue
		}
		if cls.degraded || c.chainCrosses(cls, set) {
			out = append(out, cls)
		}
	}
	c.affected = out
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

// scoreLocked refreshes each affected class's graph against the post-event
// network and scores its current chain, producing the priority order:
// descending gap below the floor (a broken chain scores below
// everything), ties broken by key for determinism.
func (c *Controller) scoreLocked(affected []*Class) []planItem {
	items := make([]planItem, 0, len(affected))
	for _, cls := range affected {
		postSat := -1.0 // broken or chain-less: ranks hardest-hit
		if g, err := c.classGraphLocked(cls); err == nil && cls.current != nil && cls.current.Found {
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

// classGraphLocked brings the class graph up to the overlay as it is now:
// graph.Cache.BuildKeyed, on the key the class holds, serves the cached
// graph when the overlay has not moved, and otherwise refreshes it in
// place — every edge re-annotated, edges whose host pair lost or regained
// connectivity masked or unmasked. Only a new key (re-derived services)
// or an evicted entry builds a graph. Called with c.mu held.
func (c *Controller) classGraphLocked(cls *Class) (*graph.Graph, error) {
	r := c.regions[cls.spec.Region]
	if cls.svcGen != r.svcGen {
		// A service fault changed the region's pool since the class last
		// planned: re-derive its alive services and, with them, its
		// cache key (so the build below starts fresh).
		cls.in.Services = r.services()
		cls.gkey = graph.InputKey(&cls.in)
		cls.svcGen = r.svcGen
	}
	g, _, err := c.cache.BuildKeyed(cls.gkey, cls.in)
	return g, err
}

// planOneLocked re-plans one class: bring the class graph up to the
// overlay as it is (including earlier classes' hold swaps in this same
// storm), run Select once, and fan the result out to the members with
// one atomic hold swap per run. A class whose graph cannot be built gets no
// Select and is recorded no-chain. Returns the outcome, the plan for
// the storm record, and whether Select ran. Called with c.mu held.
func (c *Controller) planOneLocked(seq int, it planItem) (ClassOutcome, classPlan, bool) {
	cls := it.cls
	planStart := now()

	// Annotate the class graph as if the class were absent: its own
	// members' holds are what the re-plan will replace, so they must
	// not count against the availability the planner sees. The holds
	// are released only around the annotation and restored exactly —
	// the graph keeps the freed-capacity snapshot, the overlay does not.
	// Verify builds its oracle graph cold inside the same window.
	c.releaseMembersLocked(cls)
	g, err := c.classGraphLocked(cls)
	var fresh *graph.Graph
	if c.cfg.Verify {
		fresh, _ = graph.Build(cls.in) // a failed build fails every check
	}
	dropped := c.restoreMembersLocked(cls)

	var res *core.Result
	degraded := false
	if err == nil {
		var selErr error
		res, selErr = core.Select(g, cls.selcfg)
		c.cfg.Counters.Inc(metrics.CounterStormSelectCalls)
		switch {
		case selErr == nil:
		case errors.Is(selErr, core.ErrBelowFloor) && res != nil && res.Found:
			degraded = true
		default:
			res = nil // nothing composes; keep the old chain
		}
		if c.cfg.Verify {
			c.verifyClassLocked(fresh, cls, res)
		}
	}

	out := c.applyPlanLocked(cls, res, degraded)
	out.Gap = it.gap
	plan := classPlan{
		Key: cls.key, Outcome: out.Outcome,
		Degraded: cls.degraded, Kbps: cls.kbps, Dropped: dropped,
	}
	if res != nil {
		plan.Found = res.Found
		plan.Path = res.Path
		plan.Formats = res.Formats
		plan.Params = res.Params
		plan.Satisfaction = res.Satisfaction
		plan.Cost = res.Cost
	}
	c.flights.class(seq, cls.key, out.Outcome, out.Satisfaction, ms(now().Sub(planStart)), false)
	return out, plan, err == nil
}

// releaseMembersLocked lifts every member's hold off the overlay, one
// ReleaseChainN per run of identical holds (see holdRun). Non-reserving
// members hold nothing and are skipped here and in
// restoreMembersLocked. The holds stay on the members, which is what
// restoreMembersLocked re-reserves.
func (c *Controller) releaseMembersLocked(cls *Class) {
	r := c.regions[cls.spec.Region]
	for i := 0; i < len(cls.members); {
		hold := cls.members[i].held
		if len(hold) == 0 {
			i++
			continue
		}
		j := holdRun(cls.members, i)
		r.Net.ReleaseChainN(hold, j-i)
		i = j
	}
}

// restoreMembersLocked re-reserves the holds releaseMembersLocked
// lifted, one ReserveChainN per run. Restoration fails when the event
// took a held link down or shrank it below the standing holds; such a
// member loses its hold (it was dead bandwidth) and is marked degraded —
// the accounting stays exact either way. A refused reservation leaves
// the overlay untouched, so the rest of its run is refused too. It
// returns the members that lost their hold, which the class's plan in
// the storm record carries so replay drops the same holds.
func (c *Controller) restoreMembersLocked(cls *Class) []string {
	r := c.regions[cls.spec.Region]
	start := len(c.dropped)
	for i := 0; i < len(cls.members); {
		hold := cls.members[i].held
		if len(hold) == 0 {
			i++
			continue
		}
		j := holdRun(cls.members, i)
		k, _ := r.Net.ReserveChainN(hold, j-i)
		for _, s := range cls.members[i+k : j] {
			s.held = nil
			c.setDegradedLocked(s, true)
			c.dropped = append(c.dropped, s.ID)
		}
		i = j
	}
	if len(c.dropped) == start {
		return nil
	}
	// The storm's record is encoded before the next storm reuses
	// c.dropped; a later class growing it leaves this slice intact.
	return c.dropped[start:len(c.dropped):len(c.dropped)]
}

// dropHoldsLocked replays restoreMembersLocked's losses: each named
// member's hold is released and the member marked degraded. Consecutive
// names holding identical holds release with one ReleaseChainN.
func (c *Controller) dropHoldsLocked(cls *Class, ids []string) {
	r := c.regions[cls.spec.Region]
	var hold []overlay.Reservation
	n := 0
	for _, id := range ids {
		s, ok := c.memberIdx[id]
		if !ok || s.class != cls {
			continue
		}
		if n > 0 && !sameHold(s.held, hold) {
			r.Net.ReleaseChainN(hold, n)
			n = 0
		}
		hold = s.held
		n++
		s.held = nil
		c.setDegradedLocked(s, true)
	}
	r.Net.ReleaseChainN(hold, n)
}

// holdRun returns the end of the run that starts at members[i]: the
// maximal stretch of consecutive reserving members holding exactly what
// members[i] holds. One overlay call moves a whole run, and it is exact:
// the call does the float operations the per-member calls would, and a
// refused reservation or swap restores every link it touched, so once
// one member of a run fails every later member fails too.
func holdRun(members []*Session, i int) int {
	hold := members[i].held
	j := i + 1
	for j < len(members) && members[j].reserve && sameHold(members[j].held, hold) {
		j++
	}
	return j
}

// sameHold reports whether two holds reserve the same links at the same
// bitrates. Members a storm moved share one hold slice, so the common
// case is one pointer comparison.
func sameHold(a, b []overlay.Reservation) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyClassLocked is the naive-equivalence harness check: Select is
// re-run for every member on fresh, a cold graph.Build of the overlay
// the class planned against, and must return the class plan — the same
// chain and formats, or nothing when the class plan found nothing. A
// missing fresh graph fails every check. Counted separately from
// storm.select_calls — these are the baseline being measured against,
// not controller work.
func (c *Controller) verifyClassLocked(fresh *graph.Graph, cls *Class, res *core.Result) {
	for range cls.members {
		match := fresh != nil
		if match {
			naive, err := core.Select(fresh, cls.selcfg)
			if err != nil && !errors.Is(err, core.ErrBelowFloor) {
				naive = nil
			}
			match = samePlan(naive, res)
		}
		c.naiveChecks++
		if !match {
			c.naiveMismatches++
		}
	}
}

// samePlan reports whether two Select results adopt the same chain with
// the same formats; two results that found nothing are the same plan.
func samePlan(a, b *core.Result) bool {
	aFound, bFound := a != nil && a.Found, b != nil && b.Found
	if !aFound || !bFound {
		return aFound == bFound
	}
	return slices.Equal(a.Path, b.Path) && slices.Equal(a.Formats, b.Formats)
}

// applyPlanLocked installs a plan result on the class and fans it out
// to the members. It is the single mutation path shared by live storms
// and journal replay, which is what keeps a replayed fan-out
// byte-identical to the live one.
func (c *Controller) applyPlanLocked(cls *Class, res *core.Result, degraded bool) ClassOutcome {
	// SLO accounting fires on every application — live or replayed — so
	// a replica's qos.* series matches the primary's (see qos.go).
	prev := c.prev[:0]
	for _, s := range cls.members {
		prev = append(prev, s.degraded)
	}
	c.prev = prev
	defer c.qosApplyLocked(cls, prev)
	out := ClassOutcome{Key: cls.key, Members: len(cls.members)}
	if res == nil || !res.Found {
		// Graceful degradation floor: nothing composes, members keep
		// their old holds — streaming over a degraded chain beats
		// streaming over nothing.
		cls.degraded = true
		for _, s := range cls.members {
			c.setDegradedLocked(s, true)
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
		slices.Equal(cls.current.Path, res.Path) &&
		cls.kbps == kbps
	cls.current = res
	cls.kbps = kbps
	cls.degraded = degraded
	out.Chain = cls.Chain()
	out.Satisfaction = res.Satisfaction
	if same {
		// The refreshed graph still prefers the chain the members
		// already hold; their reservations are already exact.
		for _, s := range cls.members {
			c.setDegradedLocked(s, degraded)
		}
		out.Outcome = OutcomeUnchanged
		if degraded && !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		return out
	}

	// Every moved member shares newHolds: nothing writes into a hold in
	// place, so one read-only slice serves the whole class.
	r := c.regions[cls.spec.Region]
	newHolds := c.chainReservations(cls)
	replanned := 0
	for i := 0; i < len(cls.members); {
		s := cls.members[i]
		if !s.reserve {
			// A non-reserving member holds nothing: it just rides the
			// new chain.
			c.setDegradedLocked(s, degraded)
			s.swaps++
			replanned++
			i++
			continue
		}
		j := holdRun(cls.members, i)
		k, _ := r.Net.SwapChainN(s.held, newHolds, j-i)
		for _, m := range cls.members[i : i+k] {
			m.held = newHolds
			c.setDegradedLocked(m, degraded)
			m.swaps++
		}
		// Atomicity: a failed swap released nothing and acquired
		// nothing; the member keeps its old chain, degraded.
		for _, m := range cls.members[i+k : j] {
			c.setDegradedLocked(m, true)
		}
		replanned += k
		out.SwapFailed += j - i - k
		i = j
	}
	if !c.replaying && replanned > 0 {
		c.cfg.Counters.Add(metrics.CounterStormSessionsReplanned, int64(replanned))
		if degraded {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(replanned))
		}
	}
	if degraded {
		out.Outcome = OutcomeDegraded
	} else {
		out.Outcome = OutcomeReplanned
	}
	return out
}
