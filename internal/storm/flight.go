package storm

// flight.go is the storm flight recorder: a bounded in-memory ring of
// per-storm event timelines — begin, one event per class fan-out, end —
// with per-class plan latencies and Select counts. The recorder is
// diagnostic state, deliberately outside Fingerprint(): fingerprints
// compare class chains and member holds, while flight timelines differ
// between a live storm and its replay by construction (replayed class
// events re-apply journaled plans, so they carry zero latency and zero
// Select calls).
//
// The recorder survives promotion because it is journal-backed by
// construction: every flight corresponds to one storm record in the
// WAL, and replaying that record on a follower rebuilds the same
// timeline — begin, its class events, end — marked Replayed. A storm
// whose record never became durable (the primary died between the
// command's commit and the storm's) has no replayed flight; the
// follower's Reconcile re-runs it live under the same storm sequence.

import (
	"slices"
	"time"
)

// flightKeep bounds the ring — enough for a harness run's full storm
// history without unbounded growth on a long-lived daemon.
const flightKeep = 16

// FlightEvent is one recorded moment of a storm.
type FlightEvent struct {
	// Kind is "begin", "class" or "end".
	Kind string `json:"kind"`
	// AtMs offsets the event from the flight's begin time.
	AtMs float64 `json:"atMs"`
	// Class fields (Kind == "class" only).
	Class        string  `json:"class,omitempty"`
	Outcome      string  `json:"outcome,omitempty"`
	Satisfaction float64 `json:"satisfaction,omitempty"`
	// LatencyMs is the class's live plan latency (graph refresh + Select +
	// fan-out); zero for replayed events, which re-apply a journaled
	// plan without planning.
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Selects counts Select invocations behind this event (1 per live
	// class plan, 0 replayed).
	Selects int `json:"selects,omitempty"`
	// Replayed marks events rebuilt from the journal rather than
	// recorded live.
	Replayed bool `json:"replayed,omitempty"`
}

// Flight is one storm's recorded timeline.
type Flight struct {
	// Storm is the storm sequence number.
	Storm int `json:"storm"`
	// Begin is when the recorder first saw the storm (live begin, or
	// replay time for a rebuilt segment).
	Begin time.Time `json:"begin"`
	// Links and Classes are the storm's scope as journaled.
	Links   int `json:"links"`
	Classes int `json:"classes"`
	// Source names the node whose controller recorded this flight —
	// empty locally, annotated by the cluster /debug/storms aggregator.
	Source string `json:"source,omitempty"`
	// Events is the ordered timeline.
	Events []FlightEvent `json:"events"`
}

// flightRecorder holds the ring; guarded by the controller's mu. A
// storm's begin, class events and end all land inside the one critical
// section that runs or replays the storm, so no reader sees an open
// flight.
type flightRecorder struct {
	flights []*Flight // oldest first, bounded by flightKeep
}

// get finds the flight for a storm sequence (newest match).
func (fr *flightRecorder) get(seq int) *Flight {
	for i := len(fr.flights) - 1; i >= 0; i-- {
		if fr.flights[i].Storm == seq {
			return fr.flights[i]
		}
	}
	return nil
}

// begin opens a flight for a storm. Once the ring is full, the flight
// it drops is reused, events array and all: Flights hands out copies,
// so nothing outside the recorder holds it.
func (fr *flightRecorder) begin(seq, links, classes int, replayed bool) {
	var f *Flight
	if len(fr.flights) == flightKeep {
		f = fr.flights[0]
		copy(fr.flights, fr.flights[1:])
		fr.flights = fr.flights[:flightKeep-1]
	} else {
		f = &Flight{}
	}
	*f = Flight{
		Storm: seq, Begin: now(), Links: links, Classes: classes,
		Events: append(slices.Grow(f.Events[:0], classes+2), FlightEvent{Kind: "begin", Replayed: replayed}),
	}
	fr.flights = append(fr.flights, f)
}

// class records one class fan-out.
func (fr *flightRecorder) class(seq int, key, outcome string, sat, latencyMs float64, replayed bool) {
	f := fr.get(seq)
	if f == nil {
		return
	}
	ev := FlightEvent{
		Kind: "class", AtMs: ms(now().Sub(f.Begin)),
		Class: key, Outcome: outcome, Satisfaction: sat,
		Replayed: replayed,
	}
	if !replayed {
		ev.LatencyMs = latencyMs
		ev.Selects = 1
	}
	f.Events = append(f.Events, ev)
}

// end closes a flight.
func (fr *flightRecorder) end(seq int, replayed bool) {
	f := fr.get(seq)
	if f == nil {
		return
	}
	f.Events = append(f.Events, FlightEvent{
		Kind: "end", AtMs: ms(now().Sub(f.Begin)), Replayed: replayed,
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Flights snapshots the recorded storms, newest first. The copies are
// the caller's to annotate (the cluster aggregator stamps Source).
func (c *Controller) Flights() []Flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Flight, 0, len(c.flights.flights))
	for i := len(c.flights.flights) - 1; i >= 0; i-- {
		f := c.flights.flights[i]
		cp := *f
		cp.Events = append([]FlightEvent(nil), f.Events...)
		out = append(out, cp)
	}
	return out
}

// FlightSummary condenses the newest flight for /healthz.
type FlightSummary struct {
	Storm  int `json:"storm"`
	Events int `json:"events"`
}

// summary condenses the newest flight; nil before the first storm.
func (fr *flightRecorder) summary() *FlightSummary {
	if len(fr.flights) == 0 {
		return nil
	}
	f := fr.flights[len(fr.flights)-1]
	return &FlightSummary{Storm: f.Storm, Events: len(f.Events)}
}
