package storm

// run.go is the storm execution engine: given the pending changed-link
// set, it computes the affected classes, scores and orders them by how
// far below their floor the event pushed them, and re-plans each class
// exactly once — Select per class, atomic hold swap per member.

import (
	"encoding/json"
	"errors"
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
// that caused the storm; a nil report means nothing was pending.
//
// The whole storm is one critical section: c.mu is held from absorbing
// the pending set until the report is stored, so every other controller
// call — a reader included — sees the storm whole or not at all.
func (c *Controller) Storm() (*Report, json.RawMessage, error) {
	start := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := make(map[string][]overlay.LinkRef)
	totalLinks := 0
	for name, r := range c.regions {
		if len(r.pending) > 0 {
			changed[name] = sortLinks(r.pending)
			totalLinks += len(r.pending)
			r.pending = make(map[overlay.LinkRef]bool)
		}
	}
	if totalLinks == 0 && len(c.replan) == 0 {
		return nil, nil, nil
	}
	items := c.scoreLocked(c.affectedLocked(changed))
	clear(c.replan)
	c.stormSeq++
	seq := c.stormSeq

	// The plan phase: every item gets a plan — a class that cannot be
	// planned is recorded no-chain — so a storm never stops part-way.
	c.flights.begin(seq, totalLinks, len(items), false)
	rep := &Report{Storm: seq, ChangedLinks: totalLinks, AffectedClasses: len(items)}
	rec := record{Storm: seq, Links: changed, Plans: make([]classPlan, 0, len(items))}
	for _, it := range items {
		rep.AffectedSessions += len(it.cls.members)
	}
	for _, it := range items {
		out, plan, selected := c.planOneLocked(seq, it)
		rec.Plans = append(rec.Plans, plan)
		rep.Classes = append(rep.Classes, *out)
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
	data, err := json.Marshal(rec)
	return rep, data, err
}

// affectedLocked selects the classes a changed-link set touches, plus
// the classes NoteReplan marked.
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
		if c.replan[key] {
			out = append(out, cls)
			continue
		}
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
// graph.Cache.BuildEx serves the cached graph when the overlay has not
// moved, re-annotates every edge in place when only link values moved,
// and rebuilds when connectivity changed. Called with c.mu held.
func (c *Controller) classGraphLocked(cls *Class) (*graph.Graph, error) {
	r := c.regions[cls.spec.Region]
	if cls.svcGen != r.svcGen {
		// A service fault changed the region's pool since the class last
		// planned: re-derive its alive services (a new cache key, so the
		// build below starts fresh).
		cls.in.Services = r.services()
		cls.svcGen = r.svcGen
	}
	g, _, err := c.cache.BuildEx(cls.in)
	return g, err
}

// planOneLocked re-plans one class: bring the class graph up to the
// overlay as it is (including earlier classes' hold swaps in this same
// storm), run Select once, and fan the result out to every member with
// an atomic hold swap. A class whose graph cannot be built gets no
// Select and is recorded no-chain. Returns the outcome, the plan for
// the storm record, and whether Select ran. Called with c.mu held.
func (c *Controller) planOneLocked(seq int, it planItem) (*ClassOutcome, classPlan, bool) {
	cls := it.cls
	planStart := now()

	// Annotate the class graph as if the class were absent: its own
	// members' holds are what the re-plan will replace, so they must
	// not count against the availability the planner sees. The holds
	// are released only around the annotation and restored exactly —
	// the graph keeps the freed-capacity snapshot, the overlay does not.
	// Verify builds its oracle graph cold inside the same window.
	saved := c.releaseMembersLocked(cls)
	g, err := c.classGraphLocked(cls)
	var fresh *graph.Graph
	if c.cfg.Verify {
		fresh, _ = graph.Build(cls.in) // a failed build fails every check
	}
	dropped := c.restoreMembersLocked(cls, saved)

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
// the class's plan in the storm record carries so replay drops the
// same holds.
func (c *Controller) restoreMembersLocked(cls *Class, saved [][]overlay.Reservation) []string {
	r := c.regions[cls.spec.Region]
	var dropped []string
	for i, hold := range saved {
		if len(hold) == 0 {
			continue
		}
		if err := r.Net.ReserveChain(hold); err != nil {
			cls.members[i].held = nil
			c.setDegradedLocked(cls.members[i], true)
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
		c.setDegradedLocked(s, true)
	}
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
	if core.PathString(a.Path) != core.PathString(b.Path) || len(a.Formats) != len(b.Formats) {
		return false
	}
	for i := range a.Formats {
		if a.Formats[i] != b.Formats[i] {
			return false
		}
	}
	return true
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
		core.PathString(cls.current.Path) == core.PathString(res.Path) &&
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
				c.setDegradedLocked(s, true)
				out.SwapFailed++
				continue
			}
			s.held = hold
		}
		c.setDegradedLocked(s, degraded)
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
