package storm

// journal.go makes storms crash-safe through the embedding host's
// write-ahead log. The controller owns no log of its own: each storm
// fan-out — storm-begin, one storm-class per re-planned class,
// storm-end — is handed to Config.Sink, which journals it in true order
// with the host's own commands. Everything else (regions, classes,
// attachments, link changes) is derived state the host rebuilds by
// replaying its own create/fault/delete commands. During that replay
// the host hands the storm records back through ReplayRecord: fan-outs
// re-apply their recorded plans verbatim (no Select), and a storm that
// began but never ended — the host died mid-fan-out — is finished by
// ResumeOpenStorm in the recorded priority order, so the resulting
// state is byte-identical to what the interrupted process would have
// produced.

import (
	"encoding/json"
	"fmt"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
)

// Storm record kinds forwarded to Config.Sink.
const (
	kindStormBegin = "storm-begin"
	kindStormClass = "storm-class"
	kindStormEnd   = "storm-end"
)

// beginRecord opens a storm: the absorbed changed-link set and the
// affected classes in their decided priority order, so a crash-resume
// re-plans the remainder in exactly the order the live storm would
// have used.
type beginRecord struct {
	Storm   int                          `json:"storm"`
	Links   map[string][]overlay.LinkRef `json:"links"`
	Classes []string                     `json:"classes"`
}

// classRecord is one class's completed fan-out: the plan result to
// re-apply verbatim on replay (replay re-runs the member swaps, never
// Select), plus the members whose holds the event invalidated before
// the plan (see restoreMembersLocked).
type classRecord struct {
	Storm        int            `json:"storm"`
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

type endRecord struct {
	Storm int `json:"storm"`
}

// journalLocked hands one storm record to the sink. A controller
// without a sink (in-memory use, the harnesses) and replay are no-ops.
func (c *Controller) journalLocked(kind string, payload any) error {
	if c.replaying || c.cfg.Sink == nil {
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return c.cfg.Sink(kind, data)
}

// ResumeOpenStorm finishes a storm whose begin record was replayed
// without a matching end — a crash (or failover) mid-fan-out. Classes
// with a journaled fan-out were restored verbatim during replay; the
// remainder re-plan live here, in the recorded priority order, so the
// resulting state is byte-identical to what the interrupted process
// would have produced. The host calls it after its own replay completes
// (the promoted follower's Reconcile). Returns (nil, nil) when no storm
// was open.
func (c *Controller) ResumeOpenStorm() (*Report, error) {
	c.mu.Lock()
	open := c.openStorm
	c.openStorm = nil
	done := c.replayDone
	c.replayDone = nil
	if open == nil {
		c.mu.Unlock()
		return nil, nil
	}
	c.active = true
	c.fanouts = 0
	var items []planItem
	for _, key := range open.Classes {
		if done[key] {
			continue
		}
		if cls, ok := c.classes[key]; ok {
			items = append(items, planItem{cls: cls})
		}
	}
	total := 0
	for _, links := range open.Links {
		total += len(links)
	}
	c.mu.Unlock()
	// The replayed begin already opened this storm's flight; mark it
	// resumed so the pre-kill and post-promotion segments read as one
	// storm ID with a failover in the middle.
	c.flights.resume(open.Storm)
	stormRep, err := c.execute(open.Storm, total, items, true)
	if err != nil {
		return nil, fmt.Errorf("storm: resume storm %d: %w", open.Storm, err)
	}
	c.mu.Lock()
	c.lastReport = stormRep
	c.mu.Unlock()
	return stormRep, nil
}

// ReplayRecord applies one sink record by kind. The host replays its
// WAL and hands the storm records back in order; after the last one it
// calls ResumeOpenStorm.
func (c *Controller) ReplayRecord(kind string, data json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replaying = true
	defer func() { c.replaying = false }()
	switch kind {
	case kindStormBegin:
		var rec beginRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		c.stormSeq = rec.Storm
		c.openStorm = &rec
		c.replayDone = make(map[string]bool)
		// The live storm absorbed these links out of pending.
		total := 0
		for name, links := range rec.Links {
			total += len(links)
			if r, ok := c.regions[name]; ok {
				for _, l := range links {
					delete(r.pending, l)
				}
			}
		}
		c.flights.begin(rec.Storm, total, len(rec.Classes), true)
		return nil
	case kindStormClass:
		var rec classRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		cls, ok := c.classes[rec.Key]
		if !ok {
			return fmt.Errorf("storm-class for unknown class %s", rec.Key)
		}
		var res *core.Result
		if rec.Found {
			res = &core.Result{
				Found: true, Path: rec.Path, Formats: rec.Formats,
				Params: rec.Params, Satisfaction: rec.Satisfaction, Cost: rec.Cost,
			}
		}
		c.dropHoldsLocked(cls, rec.Dropped)
		c.applyPlanLocked(cls, res, rec.Degraded)
		c.flights.class(rec.Storm, rec.Key, rec.Outcome, rec.Satisfaction, 0, true)
		if c.replayDone != nil {
			c.replayDone[rec.Key] = true
		}
		return nil
	case kindStormEnd:
		var rec endRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		c.flights.end(rec.Storm, true)
		c.openStorm = nil
		c.replayDone = nil
		return nil
	default:
		return fmt.Errorf("unknown storm record kind %q", kind)
	}
}
