// Package sim runs declarative, reproducible simulations of a whole
// adaptation deployment: a scenario names the network, the intermediaries
// with their trans-coding services, the content, a cast of users and
// devices, and a schedule of events (session arrivals and departures,
// bandwidth changes, link failures). The engine steps through virtual
// time, re-evaluating every active session each step, and reports
// per-step aggregates plus per-session traces.
//
// Scenarios are plain JSON, so experiments can be written and versioned
// as data (`cmd/adaptsim -scenario file.json`).
package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"qoschain/internal/core"
	"qoschain/internal/fault"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// Event is one scheduled occurrence. Kind selects the variant:
//
//	arrive      SessionID, User, Device  — a session joins
//	depart      SessionID                — a session leaves
//	bandwidth   From, To, Kbps           — a link's capacity changes
//	removelink  From, To                 — a link is removed for good
//	hostdown    Host                     — a host crashes (links + services)
//	hostup      Host                     — a crashed host recovers
//	servicedown Service                  — a service deregisters
//	serviceup   Service                  — a deregistered service returns
type Event struct {
	AtStep    int     `json:"atStep"`
	Kind      string  `json:"kind"`
	SessionID string  `json:"sessionId,omitempty"`
	User      string  `json:"user,omitempty"`
	Device    string  `json:"device,omitempty"`
	From      string  `json:"from,omitempty"`
	To        string  `json:"to,omitempty"`
	Kbps      float64 `json:"kbps,omitempty"`
	Host      string  `json:"host,omitempty"`
	Service   string  `json:"service,omitempty"`
}

// Scenario is a complete simulation description.
type Scenario struct {
	// Name labels the run.
	Name string `json:"name"`
	// Steps is the number of virtual-time steps (defaults to the last
	// event's step).
	Steps int `json:"steps,omitempty"`
	// SenderHost locates the content source (default "sender").
	SenderHost string `json:"senderHost,omitempty"`
	// Content is the shared source object.
	Content profile.Content `json:"content"`
	// Network is the initial overlay.
	Network profile.Network `json:"network"`
	// Intermediaries host the trans-coding services.
	Intermediaries []profile.Intermediary `json:"intermediaries"`
	// Users and Devices are the cast referenced by arrive events. A
	// device's ID must be a host on the network.
	Users   []profile.User   `json:"users"`
	Devices []profile.Device `json:"devices"`
	// Reserve enables bandwidth reservation (admission control).
	Reserve bool `json:"reserve,omitempty"`
	// Failover enables session failover: broken chains
	// re-compose with quarantine and graceful degradation instead of
	// stalling on their last chain.
	Failover bool `json:"failover,omitempty"`
	// SatisfactionFloor is the failover sessions' minimum acceptable
	// satisfaction (see session.FailoverConfig).
	SatisfactionFloor float64 `json:"satisfactionFloor,omitempty"`
	// Events is the schedule.
	Events []Event `json:"events"`
}

// Validate checks the scenario's referential integrity.
func (sc *Scenario) Validate() error {
	if err := sc.Content.Validate(); err != nil {
		return err
	}
	if err := sc.Network.Validate(); err != nil {
		return err
	}
	users := make(map[string]bool, len(sc.Users))
	for i := range sc.Users {
		if err := sc.Users[i].Validate(); err != nil {
			return err
		}
		users[sc.Users[i].Name] = true
	}
	devices := make(map[string]bool, len(sc.Devices))
	for i := range sc.Devices {
		if err := sc.Devices[i].Validate(); err != nil {
			return err
		}
		devices[sc.Devices[i].ID] = true
	}
	for i := range sc.Intermediaries {
		if err := sc.Intermediaries[i].Validate(); err != nil {
			return err
		}
	}
	ids := make(map[string]bool)
	for i, ev := range sc.Events {
		if ev.AtStep < 1 {
			return fmt.Errorf("sim: event %d has step %d < 1", i, ev.AtStep)
		}
		switch ev.Kind {
		case "arrive":
			if ev.SessionID == "" {
				return fmt.Errorf("sim: event %d: arrive needs sessionId", i)
			}
			if ids[ev.SessionID] {
				return fmt.Errorf("sim: duplicate arrival of session %q", ev.SessionID)
			}
			ids[ev.SessionID] = true
			if !users[ev.User] {
				return fmt.Errorf("sim: event %d references unknown user %q", i, ev.User)
			}
			if !devices[ev.Device] {
				return fmt.Errorf("sim: event %d references unknown device %q", i, ev.Device)
			}
		case "depart":
			if ev.SessionID == "" {
				return fmt.Errorf("sim: event %d: depart needs sessionId", i)
			}
		case "bandwidth":
			if ev.From == "" || ev.To == "" || ev.Kbps < 0 {
				return fmt.Errorf("sim: event %d: bad bandwidth event", i)
			}
		case "removelink":
			if ev.From == "" || ev.To == "" {
				return fmt.Errorf("sim: event %d: bad removelink event", i)
			}
		case "hostdown", "hostup":
			if ev.Host == "" {
				return fmt.Errorf("sim: event %d: %s needs host", i, ev.Kind)
			}
		case "servicedown", "serviceup":
			if ev.Service == "" {
				return fmt.Errorf("sim: event %d: %s needs service", i, ev.Kind)
			}
		default:
			return fmt.Errorf("sim: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// LoadScenario reads and validates a JSON scenario.
func LoadScenario(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("sim: decoding scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// StepReport aggregates one virtual-time step.
type StepReport struct {
	Step           int
	Active         int
	MeanSat        float64
	Recompositions int
	Rejections     int
	Departures     int
	Arrivals       int
	// Degraded counts active sessions running below their satisfaction
	// floor this step (failover scenarios only).
	Degraded int
}

// SessionTrace records one session's life.
type SessionTrace struct {
	ID         string
	User       string
	Device     string
	ArriveStep int
	DepartStep int // 0 while active at the end
	Rejected   bool
	FinalPath  string
	FinalSat   float64
	Samples    []session.Sample
}

// Report is the simulation outcome.
type Report struct {
	Name     string
	Steps    []StepReport
	Sessions []SessionTrace
	// Counters carries the failover metrics of a failover-enabled run
	// (nil otherwise).
	Counters *metrics.Counters
}

// DegradedSteps counts step/session pairs spent degraded.
func (r *Report) DegradedSteps() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Degraded
	}
	return n
}

// MeanSatisfaction averages the per-step means over steps with sessions.
func (r *Report) MeanSatisfaction() float64 {
	sum, n := 0.0, 0
	for _, s := range r.Steps {
		if s.Active > 0 {
			sum += s.MeanSat
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TotalRejections counts arrivals that found no chain.
func (r *Report) TotalRejections() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Rejections
	}
	return n
}

// active pairs a live session with its trace index.
type active struct {
	sess  *session.Session
	trace int
}

// Run executes the scenario.
func Run(sc *Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	net, err := overlay.FromProfile(sc.Network)
	if err != nil {
		return nil, err
	}
	senderHost := sc.SenderHost
	if senderHost == "" {
		senderHost = "sender"
	}
	usersByName := make(map[string]*profile.User, len(sc.Users))
	for i := range sc.Users {
		usersByName[sc.Users[i].Name] = &sc.Users[i]
	}
	devicesByID := make(map[string]*profile.Device, len(sc.Devices))
	for i := range sc.Devices {
		devicesByID[sc.Devices[i].ID] = &sc.Devices[i]
	}
	pool := graph.CollectServices(sc.Intermediaries)
	svcSet := fault.NewServiceSet(pool)
	var counters *metrics.Counters
	if sc.Failover {
		counters = metrics.NewCounters()
	}

	steps := sc.Steps
	for _, ev := range sc.Events {
		if ev.AtStep > steps {
			steps = ev.AtStep
		}
	}
	eventsAt := make(map[int][]Event)
	for _, ev := range sc.Events {
		eventsAt[ev.AtStep] = append(eventsAt[ev.AtStep], ev)
	}

	report := &Report{Name: sc.Name, Counters: counters}
	live := make(map[string]*active)
	order := []string{} // arrival order for deterministic iteration

	for step := 1; step <= steps; step++ {
		sr := StepReport{Step: step}
		for _, ev := range eventsAt[step] {
			switch ev.Kind {
			case "bandwidth":
				_ = net.SetBandwidth(ev.From, ev.To, ev.Kbps)
			case "removelink":
				net.RemoveLink(ev.From, ev.To)
			case "hostdown":
				_ = net.FailHost(ev.Host)
				svcSet.SetHostDown(ev.Host, true)
			case "hostup":
				_ = net.RecoverHost(ev.Host)
				svcSet.SetHostDown(ev.Host, false)
			case "servicedown":
				svcSet.SetServiceDown(service.ID(ev.Service), true)
			case "serviceup":
				svcSet.SetServiceDown(service.ID(ev.Service), false)
			case "depart":
				if a, ok := live[ev.SessionID]; ok {
					a.sess.Close()
					report.Sessions[a.trace].DepartStep = step
					delete(live, ev.SessionID)
					for i, id := range order {
						if id == ev.SessionID {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
					sr.Departures++
				}
			case "arrive":
				sr.Arrivals++
				user := usersByName[ev.User]
				device := devicesByID[ev.Device]
				satProfile, perr := user.SatisfactionProfile(profile.ContactAny)
				if perr != nil {
					return nil, perr
				}
				scfg := session.Config{
					Content:      &sc.Content,
					Device:       device,
					Services:     pool,
					Net:          net,
					SenderHost:   senderHost,
					ReceiverHost: device.ID,
					Select: core.Config{
						Profile:      satProfile,
						Budget:       user.Budget,
						ReceiverCaps: device.RenderCaps(),
					},
					ReserveBandwidth: sc.Reserve,
				}
				if sc.Failover {
					scfg.Pool = svcSet
					scfg.Failover = session.FailoverConfig{
						Enabled:           true,
						SatisfactionFloor: sc.SatisfactionFloor,
						Metrics:           counters,
					}
				}
				sess, serr := session.New(scfg)
				trace := SessionTrace{
					ID: ev.SessionID, User: ev.User, Device: ev.Device,
					ArriveStep: step,
				}
				if serr != nil {
					trace.Rejected = true
					sr.Rejections++
					report.Sessions = append(report.Sessions, trace)
					continue
				}
				report.Sessions = append(report.Sessions, trace)
				live[ev.SessionID] = &active{sess: sess, trace: len(report.Sessions) - 1}
				order = append(order, ev.SessionID)
			}
		}

		// Re-evaluate every active session in arrival order.
		satSum := 0.0
		for _, id := range order {
			a := live[id]
			a.sess.Tick()
			changed, rerr := a.sess.Reevaluate()
			if rerr != nil {
				// A partitioned session keeps its last chain; count it
				// but do not abort the simulation.
				changed = false
			}
			if changed {
				sr.Recompositions++
			}
			if a.sess.Degraded() {
				sr.Degraded++
			}
			res := a.sess.Result()
			satSum += res.Satisfaction
			report.Sessions[a.trace].FinalPath = core.PathString(res.Path)
			report.Sessions[a.trace].FinalSat = res.Satisfaction
			report.Sessions[a.trace].Samples = append(report.Sessions[a.trace].Samples, session.Sample{
				Step:         step,
				Path:         core.PathString(res.Path),
				Satisfaction: res.Satisfaction,
				Recomposed:   changed,
				Degraded:     a.sess.Degraded(),
			})
		}
		sr.Active = len(order)
		if sr.Active > 0 {
			sr.MeanSat = satSum / float64(sr.Active)
		}
		report.Steps = append(report.Steps, sr)
	}

	// Close whatever is still running.
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		live[id].sess.Close()
	}
	return report, nil
}
