// Package fault injects deterministic, scriptable failures into a live
// deployment: host crashes and recoveries, link failures and flaps,
// bandwidth collapses, loss and latency spikes, and service
// deregistrations. It drives the overlay.Network failure states and a
// live ServiceSet over virtual time, the same clock the session layer
// and the simulator step, so every chaos experiment is reproducible from
// a seed.
//
// The injector applies a Schedule — either hand-written (the chaos
// equivalent of an overlay.Trace) or generated from a seed by
// RandomSchedule — and supports bounded outages: a Fault with
// RecoverAfter > 0 automatically enqueues its inverse that many steps
// later.
package fault

import (
	"fmt"
	"sort"
	"sync"

	"qoschain/internal/overlay"
	"qoschain/internal/service"
)

// Kind names a fault variant.
type Kind string

const (
	// HostCrash takes a host down: its links stop carrying traffic and
	// its services leave the live pool.
	HostCrash Kind = "hostcrash"
	// HostRecover reverses a HostCrash.
	HostRecover Kind = "hostrecover"
	// LinkDown fails one directed link, retaining its configuration.
	LinkDown Kind = "linkdown"
	// LinkUp reverses a LinkDown.
	LinkUp Kind = "linkup"
	// BandwidthCollapse multiplies a link's capacity by Factor (< 1 for
	// a collapse; the inverse is a BandwidthRestore).
	BandwidthCollapse Kind = "bandwidth"
	// BandwidthRestore sets a link's capacity back to an absolute value,
	// carried in Factor (kbps) — the inverse of a BandwidthCollapse.
	BandwidthRestore Kind = "restore-bandwidth"
	// LossSpike sets a link's loss rate to LossRate (inverse restores
	// the previous rate).
	LossSpike Kind = "loss"
	// DelaySpike sets a link's delay to DelayMs (inverse restores the
	// previous delay).
	DelaySpike Kind = "delay"
	// ServiceDown deregisters a trans-coding service from the live pool.
	ServiceDown Kind = "servicedown"
	// ServiceUp reverses a ServiceDown.
	ServiceUp Kind = "serviceup"
)

// Fault is one scheduled failure (or recovery).
type Fault struct {
	// AtStep is the virtual-time step the fault fires at (1-based).
	AtStep int `json:"atStep"`
	// Kind selects the variant and which of the following fields apply.
	Kind Kind `json:"kind"`
	// Host names the target of HostCrash/HostRecover.
	Host string `json:"host,omitempty"`
	// From/To identify the link for link-scoped faults.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Service names the target of ServiceDown/ServiceUp.
	Service service.ID `json:"service,omitempty"`
	// Factor is BandwidthCollapse's capacity multiplier, or
	// BandwidthRestore's absolute capacity in kbps.
	Factor float64 `json:"factor,omitempty"`
	// LossRate is LossSpike's new loss rate.
	LossRate float64 `json:"lossRate,omitempty"`
	// DelayMs is DelaySpike's new delay.
	DelayMs float64 `json:"delayMs,omitempty"`
	// RecoverAfter > 0 auto-schedules the inverse fault that many steps
	// after this one fires — a bounded outage.
	RecoverAfter int `json:"recoverAfter,omitempty"`
	// Group correlates faults born from one event: a backbone event that
	// degrades every link of a region stamps the same Group on each
	// per-link fault, so consumers (the storm controller, reports) can
	// treat them as one incident. Empty for independent faults.
	Group string `json:"group,omitempty"`
}

// String renders the fault compactly for logs and reports.
func (f Fault) String() string {
	switch f.Kind {
	case HostCrash, HostRecover:
		return fmt.Sprintf("t=%d %s %s", f.AtStep, f.Kind, f.Host)
	case ServiceDown, ServiceUp:
		return fmt.Sprintf("t=%d %s %s", f.AtStep, f.Kind, f.Service)
	case BandwidthCollapse:
		return fmt.Sprintf("t=%d %s %s->%s x%.2f", f.AtStep, f.Kind, f.From, f.To, f.Factor)
	case LossSpike:
		return fmt.Sprintf("t=%d %s %s->%s %.2f", f.AtStep, f.Kind, f.From, f.To, f.LossRate)
	case DelaySpike:
		return fmt.Sprintf("t=%d %s %s->%s %.0fms", f.AtStep, f.Kind, f.From, f.To, f.DelayMs)
	default:
		return fmt.Sprintf("t=%d %s %s->%s", f.AtStep, f.Kind, f.From, f.To)
	}
}

// Validate checks that the fault names the fields its kind needs.
func (f Fault) Validate() error {
	if f.AtStep < 1 {
		return fmt.Errorf("fault: step %d < 1", f.AtStep)
	}
	switch f.Kind {
	case HostCrash, HostRecover:
		if f.Host == "" {
			return fmt.Errorf("fault: %s needs a host", f.Kind)
		}
	case LinkDown, LinkUp, BandwidthCollapse, BandwidthRestore, LossSpike, DelaySpike:
		if f.From == "" || f.To == "" {
			return fmt.Errorf("fault: %s needs from/to", f.Kind)
		}
		if (f.Kind == BandwidthCollapse || f.Kind == BandwidthRestore) && f.Factor <= 0 {
			return fmt.Errorf("fault: %s needs a positive factor", f.Kind)
		}
		if f.Kind == LossSpike && (f.LossRate < 0 || f.LossRate > 1) {
			return fmt.Errorf("fault: loss rate %v outside [0,1]", f.LossRate)
		}
	case ServiceDown, ServiceUp:
		if f.Service == "" {
			return fmt.Errorf("fault: %s needs a service", f.Kind)
		}
	default:
		return fmt.Errorf("fault: unknown kind %q", f.Kind)
	}
	if f.RecoverAfter < 0 {
		return fmt.Errorf("fault: negative RecoverAfter")
	}
	return nil
}

// ServiceSet is a live, concurrency-safe view over a deployed service
// pool: fault injection marks services (or whole hosts) down and Alive
// serves the surviving subset — what the session layer composes against.
type ServiceSet struct {
	mu       sync.RWMutex
	all      []*service.Service
	svcDown  map[service.ID]bool
	hostDown map[string]bool
}

// NewServiceSet wraps a deployed pool. The slice is not copied; callers
// must not mutate it afterwards.
func NewServiceSet(svcs []*service.Service) *ServiceSet {
	return &ServiceSet{
		all:      svcs,
		svcDown:  make(map[service.ID]bool),
		hostDown: make(map[string]bool),
	}
}

// All returns the full pool, dead or alive — host lookups for chain
// bookkeeping need the complete directory.
func (s *ServiceSet) All() []*service.Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.all
}

// Alive returns the services currently registered and hosted on healthy
// hosts, in declaration order.
func (s *ServiceSet) Alive() []*service.Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*service.Service, 0, len(s.all))
	for _, svc := range s.all {
		if s.svcDown[svc.ID] || s.hostDown[svc.Host] {
			continue
		}
		out = append(out, svc)
	}
	return out
}

// SetServiceDown (de)registers one service.
func (s *ServiceSet) SetServiceDown(id service.ID, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if down {
		s.svcDown[id] = true
	} else {
		delete(s.svcDown, id)
	}
}

// SetHostDown marks every service on the host as (un)available.
func (s *ServiceSet) SetHostDown(host string, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if down {
		s.hostDown[host] = true
	} else {
		delete(s.hostDown, host)
	}
}

// Down returns the IDs of currently unavailable services (deregistered
// or on a crashed host), sorted.
func (s *ServiceSet) Down() []service.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.svcDown) == 0 && len(s.hostDown) == 0 {
		return nil
	}
	var out []service.ID
	for _, svc := range s.all {
		if s.svcDown[svc.ID] || s.hostDown[svc.Host] {
			out = append(out, svc.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Injector applies a fault schedule against a network and a service set
// as virtual time advances. It tolerates redundant faults (crashing a
// crashed host, deregistering an unknown service): chaos schedules are
// generated, not curated, and a no-op failure is not an error.
type Injector struct {
	net  *overlay.Network
	svcs *ServiceSet

	schedule []Fault // sorted by AtStep, stable
	step     int
	next     int
	pending  []Fault // auto-recoveries enqueued by RecoverAfter

	// saved state for inverse faults, keyed by link
	savedBandwidth map[[2]string]float64
	savedLoss      map[[2]string]float64
	savedDelay     map[[2]string]float64
}

// NewInjector builds an injector over the network and (optionally nil)
// service set. The schedule is validated and sorted by step.
func NewInjector(net *overlay.Network, svcs *ServiceSet, schedule []Fault) (*Injector, error) {
	for i, f := range schedule {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("fault: schedule[%d]: %w", i, err)
		}
	}
	sorted := append([]Fault(nil), schedule...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtStep < sorted[j].AtStep })
	return &Injector{
		net:            net,
		svcs:           svcs,
		schedule:       sorted,
		savedBandwidth: make(map[[2]string]float64),
		savedLoss:      make(map[[2]string]float64),
		savedDelay:     make(map[[2]string]float64),
	}, nil
}

// Step advances virtual time by one step and applies every due fault —
// scheduled ones and auto-recoveries alike. It returns the faults that
// fired this step.
func (inj *Injector) Step() []Fault {
	inj.step++
	var fired []Fault
	for inj.next < len(inj.schedule) && inj.schedule[inj.next].AtStep <= inj.step {
		f := inj.schedule[inj.next]
		inj.next++
		fired = append(fired, inj.apply(f)...)
	}
	// Auto-recoveries due this step (enqueued in firing order).
	var still []Fault
	for _, f := range inj.pending {
		if f.AtStep <= inj.step {
			fired = append(fired, inj.apply(f)...)
		} else {
			still = append(still, f)
		}
	}
	inj.pending = still
	return fired
}

// apply executes one fault, records it, and enqueues its inverse when
// RecoverAfter is set. Unknown targets and redundant transitions are
// silently skipped.
func (inj *Injector) apply(f Fault) []Fault {
	key := [2]string{f.From, f.To}
	switch f.Kind {
	case HostCrash:
		if inj.net.HostDown(f.Host) {
			return nil
		}
		if err := inj.net.FailHost(f.Host); err != nil {
			return nil
		}
		if inj.svcs != nil {
			inj.svcs.SetHostDown(f.Host, true)
		}
	case HostRecover:
		if err := inj.net.RecoverHost(f.Host); err != nil {
			return nil
		}
		if inj.svcs != nil {
			inj.svcs.SetHostDown(f.Host, false)
		}
	case LinkDown:
		if err := inj.net.FailLink(f.From, f.To); err != nil {
			return nil
		}
	case LinkUp:
		if err := inj.net.RecoverLink(f.From, f.To); err != nil {
			return nil
		}
	case BandwidthCollapse:
		capacity, _, ok := inj.net.Capacity(f.From, f.To)
		if !ok {
			return nil
		}
		if _, saved := inj.savedBandwidth[key]; !saved {
			inj.savedBandwidth[key] = capacity
		}
		if err := inj.net.SetBandwidth(f.From, f.To, capacity*f.Factor); err != nil {
			return nil
		}
	case BandwidthRestore:
		if err := inj.net.SetBandwidth(f.From, f.To, f.Factor); err != nil {
			return nil
		}
	case LossSpike:
		if _, _, loss, ok := inj.net.Link(f.From, f.To); ok {
			if _, saved := inj.savedLoss[key]; !saved {
				inj.savedLoss[key] = loss
			}
		}
		if err := inj.net.SetLoss(f.From, f.To, f.LossRate); err != nil {
			return nil
		}
	case DelaySpike:
		if _, delay, _, ok := inj.net.Link(f.From, f.To); ok {
			if _, saved := inj.savedDelay[key]; !saved {
				inj.savedDelay[key] = delay
			}
		}
		if err := inj.net.SetDelay(f.From, f.To, f.DelayMs); err != nil {
			return nil
		}
	case ServiceDown:
		if inj.svcs == nil {
			return nil
		}
		inj.svcs.SetServiceDown(f.Service, true)
	case ServiceUp:
		if inj.svcs == nil {
			return nil
		}
		inj.svcs.SetServiceDown(f.Service, false)
	}
	fired := []Fault{f}
	if f.RecoverAfter > 0 {
		if inv, ok := inj.inverse(f); ok {
			inj.pending = append(inj.pending, inv)
		}
	}
	return fired
}

// inverse builds the recovery fault for a bounded outage.
func (inj *Injector) inverse(f Fault) (Fault, bool) {
	at := f.AtStep + f.RecoverAfter
	if at <= inj.step {
		at = inj.step + f.RecoverAfter
	}
	key := [2]string{f.From, f.To}
	switch f.Kind {
	case HostCrash:
		return Fault{AtStep: at, Kind: HostRecover, Host: f.Host, Group: f.Group}, true
	case LinkDown:
		return Fault{AtStep: at, Kind: LinkUp, From: f.From, To: f.To, Group: f.Group}, true
	case BandwidthCollapse:
		orig, ok := inj.savedBandwidth[key]
		if !ok {
			return Fault{}, false
		}
		delete(inj.savedBandwidth, key)
		return Fault{AtStep: at, Kind: BandwidthRestore, From: f.From, To: f.To, Factor: orig, Group: f.Group}, true
	case LossSpike:
		orig, ok := inj.savedLoss[key]
		if !ok {
			return Fault{}, false
		}
		delete(inj.savedLoss, key)
		return Fault{AtStep: at, Kind: LossSpike, From: f.From, To: f.To, LossRate: orig, Group: f.Group}, true
	case DelaySpike:
		orig, ok := inj.savedDelay[key]
		if !ok {
			return Fault{}, false
		}
		delete(inj.savedDelay, key)
		return Fault{AtStep: at, Kind: DelaySpike, From: f.From, To: f.To, DelayMs: orig, Group: f.Group}, true
	case ServiceDown:
		return Fault{AtStep: at, Kind: ServiceUp, Service: f.Service, Group: f.Group}, true
	}
	return Fault{}, false
}

// Done reports whether every scheduled fault and pending recovery has
// fired.
func (inj *Injector) Done() bool {
	return inj.next >= len(inj.schedule) && len(inj.pending) == 0
}
