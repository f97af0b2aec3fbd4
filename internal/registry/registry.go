// Package registry implements service discovery for trans-coding
// services, in the spirit of the SLP/JINI-style advertisement the paper's
// intermediary profiles assume (Section 3): intermediaries register the
// services they host under a lease, and the graph builder queries the
// registry by input/output format.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

// Clock abstracts time for deterministic tests.
type Clock interface {
	Now() time.Time
}

// SystemClock uses the wall clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts at an arbitrary fixed instant.
func NewFakeClock() *FakeClock {
	return &FakeClock{t: time.Date(2007, 4, 15, 0, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake clock forward.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Entry is one registered service with its lease.
type Entry struct {
	Service *service.Service
	// Expires is the lease deadline; zero means no expiry.
	Expires time.Time
}

// Registry is a concurrency-safe service registry with leases.
type Registry struct {
	clock Clock

	mu      sync.RWMutex
	entries map[service.ID]*Entry
	// byInput/byOutput index services by format for O(1) graph
	// construction queries.
	byInput  map[media.Format]map[service.ID]bool
	byOutput map[media.Format]map[service.ID]bool
	// members is the cluster-membership table (see membership.go).
	members map[string]*memberEntry
}

// New returns an empty registry on the system clock.
func New() *Registry { return NewWithClock(SystemClock{}) }

// NewWithClock returns an empty registry using the given clock.
func NewWithClock(c Clock) *Registry {
	return &Registry{
		clock:    c,
		entries:  make(map[service.ID]*Entry),
		byInput:  make(map[media.Format]map[service.ID]bool),
		byOutput: make(map[media.Format]map[service.ID]bool),
	}
}

// Register validates and stores the service under a lease of the given
// duration (0 = no expiry). Re-registering an existing ID replaces the
// previous advertisement.
func (r *Registry) Register(s *service.Service, lease time.Duration) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	var expires time.Time
	if lease > 0 {
		expires = r.clock.Now().Add(lease)
	}
	cp := s.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, exists := r.entries[cp.ID]; exists {
		r.unindexLocked(old.Service)
	}
	r.entries[cp.ID] = &Entry{Service: cp, Expires: expires}
	r.indexLocked(cp)
	return nil
}

// Renew extends an existing lease; it fails for unknown or expired IDs.
func (r *Registry) Renew(id service.ID, lease time.Duration) error {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || r.expiredLocked(e, now) {
		return fmt.Errorf("registry: no live registration for %s", id)
	}
	if lease > 0 {
		e.Expires = now.Add(lease)
	} else {
		e.Expires = time.Time{}
	}
	return nil
}

// Deregister removes the service.
func (r *Registry) Deregister(id service.ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("registry: unknown service %s", id)
	}
	r.unindexLocked(e.Service)
	delete(r.entries, id)
	return nil
}

// Lookup returns a copy of the live registration for id.
func (r *Registry) Lookup(id service.ID) (*service.Service, bool) {
	now := r.clock.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok || r.expiredLocked(e, now) {
		return nil, false
	}
	return e.Service.Clone(), true
}

// ByInput returns live services that accept the format, sorted by ID.
func (r *Registry) ByInput(f media.Format) []*service.Service {
	return r.collect(r.byInput, f)
}

// ByOutput returns live services that produce the format, sorted by ID.
func (r *Registry) ByOutput(f media.Format) []*service.Service {
	return r.collect(r.byOutput, f)
}

// All returns every live registration, sorted by ID.
func (r *Registry) All() []*service.Service {
	now := r.clock.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*service.Service, 0, len(r.entries))
	for _, e := range r.entries {
		if !r.expiredLocked(e, now) {
			out = append(out, e.Service.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live registrations.
func (r *Registry) Len() int {
	now := r.clock.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if !r.expiredLocked(e, now) {
			n++
		}
	}
	return n
}

// Sweep removes expired entries (service registrations and cluster
// members alike) and returns the number removed. Queries already ignore
// expired entries, so Sweep exists to reclaim memory and make member
// expiry observable.
func (r *Registry) Sweep() int {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	expired := 0
	for id, e := range r.entries {
		if r.expiredLocked(e, now) {
			expired++
			r.unindexLocked(e.Service)
			delete(r.entries, id)
		}
	}
	return expired + r.sweepMembersLocked(now)
}

func (r *Registry) collect(index map[media.Format]map[service.ID]bool, f media.Format) []*service.Service {
	now := r.clock.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := index[f]
	out := make([]*service.Service, 0, len(ids))
	for id := range ids {
		e := r.entries[id]
		if e != nil && !r.expiredLocked(e, now) {
			out = append(out, e.Service.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Registry) expiredLocked(e *Entry, now time.Time) bool {
	return !e.Expires.IsZero() && now.After(e.Expires)
}

func (r *Registry) indexLocked(s *service.Service) {
	for _, f := range s.Inputs {
		m := r.byInput[f]
		if m == nil {
			m = make(map[service.ID]bool)
			r.byInput[f] = m
		}
		m[s.ID] = true
	}
	for _, f := range s.Outputs {
		m := r.byOutput[f]
		if m == nil {
			m = make(map[service.ID]bool)
			r.byOutput[f] = m
		}
		m[s.ID] = true
	}
}

func (r *Registry) unindexLocked(s *service.Service) {
	for _, f := range s.Inputs {
		delete(r.byInput[f], s.ID)
	}
	for _, f := range s.Outputs {
		delete(r.byOutput[f], s.ID)
	}
}
