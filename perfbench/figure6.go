package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/sim"
)

// floorOf is the QoS floor of class i: distinct floors give distinct
// equivalence classes over one region.
func floorOf(i int) float64 { return float64(i) / 10 }

// scaledFigure6 is the Figure 6 deployment with every link's bandwidth
// multiplied by scale, so a region can hold hundreds of reserving
// sessions on any single link.
func scaledFigure6(scale float64) profile.Set {
	set := sim.Figure6Set()
	for i := range set.Network.Links {
		set.Network.Links[i].BandwidthKbps *= scale
	}
	return set
}

// region is one deployment the benchmark creates sessions over: the
// create body, the chain a direct Select gives each class, and the
// inputs to repeat that Select.
type region struct {
	set      profile.Set
	body     []byte
	expected []chain
	in       graph.Input
	configs  []core.Config
	hostOf   map[string]string // service ID -> host
}

// chain is a composed chain as the API reports it.
type chain struct {
	path         string
	satisfaction float64
}

func (c chain) String() string { return fmt.Sprintf("%s sat=%.4f", c.path, c.satisfaction) }

func newRegion(scale float64, classes int) (*region, error) {
	r := &region{set: scaledFigure6(scale), hostOf: map[string]string{}}
	body, err := json.Marshal(r.set)
	if err != nil {
		return nil, err
	}
	r.body = body
	net, err := overlay.FromProfile(r.set.Network)
	if err != nil {
		return nil, err
	}
	svcs := graph.CollectServices(r.set.Intermediaries)
	for _, s := range svcs {
		r.hostOf[string(s.ID)] = s.Host
	}
	r.in = graph.Input{
		Content: &r.set.Content, Device: &r.set.Device, Services: svcs, Net: net,
		SenderHost: "sender", ReceiverHost: r.set.Device.ID,
	}
	prof, err := r.set.User.SatisfactionProfile("")
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(r.in)
	if err != nil {
		return nil, err
	}
	for i := 0; i < classes; i++ {
		cfg := core.Config{
			Profile:           prof,
			Budget:            r.set.User.Budget,
			ReceiverCaps:      r.set.Device.RenderCaps(),
			SatisfactionFloor: floorOf(i),
		}
		res, err := core.Select(g, cfg)
		if err != nil || !res.Found {
			return nil, fmt.Errorf("class %d: no chain: %v", i, err)
		}
		r.configs = append(r.configs, cfg)
		r.expected = append(r.expected, chain{path: joinPath(res.Path), satisfaction: res.Satisfaction})
	}
	return r, nil
}

func joinPath[T ~string](ids []T) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}

// createPath is the POST that creates one reserving session of class i.
func createPath(i int) string {
	return fmt.Sprintf("/v1/sessions?reserve=1&floor=%.1f", floorOf(i))
}

// create posts one session of class c and checks the reply: 201 with
// the chain and satisfaction a direct Select gives the class.
func (r *region) create(d *daemon, c int) (reply, string, error) {
	rep, err := d.call("POST", createPath(c), r.body, 201)
	if err != nil {
		return rep, "", err
	}
	id, err := r.checkCreate(rep, c)
	return rep, id, err
}

func (r *region) checkCreate(rep reply, class int) (string, error) {
	st, err := decodeState(rep.body)
	if err != nil {
		return "", fmt.Errorf("create: decoding reply: %w", err)
	}
	got := chain{path: strings.Join(st.Path, ","), satisfaction: st.Satisfaction}
	want := r.expected[class]
	if got.path != want.path || math.Abs(got.satisfaction-want.satisfaction) > 1e-9 {
		return "", fmt.Errorf("create %s: chain %v, direct Select gives %v", st.ID, got, want)
	}
	return st.ID, nil
}

// capacity is a link's set-up bandwidth.
func (r *region) capacity(from, to string) float64 {
	for _, l := range r.set.Network.Links {
		if l.From == from && l.To == to {
			return l.BandwidthKbps
		}
	}
	return 0
}

// firstHop is the link a chain enters its first service over.
func (r *region) firstHop(path []string) (from, to string, err error) {
	for _, id := range path {
		if h, ok := r.hostOf[id]; ok {
			return "sender", h, nil
		}
	}
	return "", "", fmt.Errorf("chain %v crosses no service", path)
}
