package storm

// journal.go makes storms crash-safe through the embedding host's
// write-ahead log. The controller owns no log of its own: Storm returns
// each storm as ONE encoded record (RecordKind) — the storm sequence,
// the absorbed changed links per region and every class plan in
// priority order — and the host journals it in the same batch as the
// command that caused it, so a storm is durable whole or not at all. Everything else (regions, classes, attachments, link
// changes) is derived state the host rebuilds by replaying its own
// create/fault/reevaluate/delete commands. During that replay the host
// hands each storm record back through ReplayRecord, which re-applies
// the recorded plans verbatim (no Select).
//
// A crash between a command's record and its storm record leaves the
// command without its storm: a fault's links stay pending, and so does
// a reevaluate's class mark (NoteReplan). The host's next Storm
// re-plans them from state, and the priority order is a function of
// state, so the re-run reaches the state the uninterrupted run reached.
// A storm that affected no class journals no record at all; the host
// calls SettlePending after replaying each fault, which absorbs such a
// fault's links exactly as the live storm did.
//
// Journals written before storms were single records carry each storm
// as storm-begin, one storm-class per re-planned class and storm-end.
// ReplayRecord still reads them: it collects a storm's begin and class
// records and applies them as one storm at its end. A begin that never
// got its end applies nothing, so its links stay pending for the next
// Storm.

import (
	"encoding/json"
	"fmt"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
)

// RecordKind names the storm record Storm returns.
const RecordKind = "storm"

// The record kinds of journals written before a storm was one record.
const (
	legacyBegin = "storm-begin"
	legacyClass = "storm-class"
	legacyEnd   = "storm-end"
)

// record is one whole storm: what replay needs to re-apply it without
// Select. A legacy storm-begin decodes into it too (its class list is
// implied by the class records that follow).
type record struct {
	Storm int                          `json:"storm"`
	Links map[string][]overlay.LinkRef `json:"links,omitempty"`
	Plans []classPlan                  `json:"plans,omitempty"`
}

// classPlan is one class's completed fan-out: the plan result to
// re-apply verbatim on replay (replay re-runs the member swaps, never
// Select), plus the members whose holds the event invalidated before
// the plan (see restoreMembersLocked). A legacy storm-class record is
// the same object with its storm sequence set.
type classPlan struct {
	Storm        int            `json:"storm,omitempty"`
	Key          string         `json:"key"`
	Outcome      string         `json:"outcome"`
	Found        bool           `json:"found"`
	Path         []graph.NodeID `json:"path,omitempty"`
	Formats      []media.Format `json:"formats,omitempty"`
	Params       media.Params   `json:"params,omitempty"`
	Satisfaction float64        `json:"satisfaction"`
	Cost         float64        `json:"cost"`
	Kbps         float64        `json:"kbps"`
	Degraded     bool           `json:"degraded"`
	Dropped      []string       `json:"dropped,omitempty"`
}

// result rebuilds the plan's Select result; nil when nothing composed.
func (p *classPlan) result() *core.Result {
	if !p.Found {
		return nil
	}
	return &core.Result{
		Found: true, Path: p.Path, Formats: p.Formats,
		Params: p.Params, Satisfaction: p.Satisfaction, Cost: p.Cost,
	}
}

// NoteReplan marks a class for re-planning by the next Storm, like a
// changed link marks the classes that cross it — the host's reevaluate,
// live or replayed. Replaying a storm record clears every mark: the
// reevaluate's own storm record follows it in the same journal batch,
// so a mark that outlives replay means that record was lost, and the
// next Storm re-plans the class.
func (c *Controller) NoteReplan(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.classes[key]; !ok {
		return fmt.Errorf("storm: unknown class %s", key)
	}
	c.replan[key] = true
	return nil
}

// ReplayRecord applies one journaled storm record by kind. A record
// that fails validation is rejected whole and leaves the controller
// unchanged.
func (c *Controller) ReplayRecord(kind string, data json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kind {
	case RecordKind:
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		return c.applyRecordLocked(&rec)
	case legacyBegin:
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		rec.Plans = nil
		c.legacy = &rec
		return nil
	case legacyClass:
		var plan classPlan
		if err := json.Unmarshal(data, &plan); err != nil {
			return err
		}
		if c.legacy == nil || plan.Storm != c.legacy.Storm {
			return fmt.Errorf("storm-class for storm %d outside its storm", plan.Storm)
		}
		if err := c.validPlanLocked(&plan); err != nil {
			return err
		}
		plan.Storm = 0
		c.legacy.Plans = append(c.legacy.Plans, plan)
		return nil
	case legacyEnd:
		var end struct {
			Storm int `json:"storm"`
		}
		if err := json.Unmarshal(data, &end); err != nil {
			return err
		}
		rec := c.legacy
		if rec == nil || rec.Storm != end.Storm {
			return fmt.Errorf("storm-end for storm %d without its begin", end.Storm)
		}
		c.legacy = nil
		return c.applyRecordLocked(rec)
	default:
		return fmt.Errorf("unknown storm record kind %q", kind)
	}
}

// validPlanLocked checks one plan against the controller: its class
// must be registered, and a found plan must be a chain the fan-out can
// render — at least sender and receiver, one format per hop.
func (c *Controller) validPlanLocked(p *classPlan) error {
	if _, ok := c.classes[p.Key]; !ok {
		return fmt.Errorf("storm plan for unknown class %s", p.Key)
	}
	if p.Found && (len(p.Path) < 2 || len(p.Formats) != len(p.Path)-1) {
		return fmt.Errorf("storm plan for class %s: found chain of %d nodes and %d formats", p.Key, len(p.Path), len(p.Formats))
	}
	return nil
}

// applyRecordLocked validates every plan of a storm record, then
// re-applies the storm: the absorbed links leave the pending set, each
// plan fans out exactly as it did live, and the flight recorder gets
// one closed, replayed flight.
func (c *Controller) applyRecordLocked(rec *record) error {
	for i := range rec.Plans {
		if err := c.validPlanLocked(&rec.Plans[i]); err != nil {
			return err
		}
	}
	c.replaying = true
	defer func() { c.replaying = false }()
	c.stormSeq = rec.Storm
	clear(c.replan)
	total := 0
	for name, links := range rec.Links {
		total += len(links)
		if r, ok := c.regions[name]; ok {
			for _, l := range links {
				delete(r.pending, l)
			}
		}
	}
	c.flights.begin(rec.Storm, total, len(rec.Plans), true)
	for i := range rec.Plans {
		p := &rec.Plans[i]
		cls := c.classes[p.Key]
		c.dropHoldsLocked(cls, p.Dropped)
		c.applyPlanLocked(cls, p.result(), p.Degraded)
		c.flights.class(rec.Storm, p.Key, p.Outcome, p.Satisfaction, 0, true)
	}
	c.flights.end(rec.Storm, true)
	return nil
}
