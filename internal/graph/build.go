package graph

import (
	"fmt"
	"math"
	"slices"

	"qoschain/internal/media"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// Input collects everything graph construction consumes (Section 4.2):
// the content profile (sender output links), the device profile (receiver
// input links), the deployed services (intermediate vertices with their
// I/O links) and the network (edge bandwidths).
type Input struct {
	// Content supplies the sender's variants.
	Content *profile.Content
	// Device supplies the receiver's decoders.
	Device *profile.Device
	// Services are the deployed trans-coding services; each must carry
	// its Host.
	Services []*service.Service
	// Net supplies host-to-host available bandwidth. When nil, all
	// edges get unlimited (+Inf) bandwidth — useful for pure-algorithm
	// tests. With a network present, an edge whose host pair has no
	// connectivity is masked: kept in the edge list, absent from the
	// adjacency.
	Net *overlay.Network
	// SenderHost/ReceiverHost locate the special vertices.
	SenderHost, ReceiverHost string
	// Intermediaries optionally declares per-host computing resources;
	// the selection algorithm enforces them (Section 4.3). Hosts absent
	// from the list are unconstrained.
	Intermediaries []profile.Intermediary
}

// Build constructs the adaptation graph: it connects the sender's
// variants to every service accepting that format, services to services
// whose input format matches an output format, and services (and the
// sender directly) to the receiver when the receiver can decode the
// format. Every such edge is added, annotated from the network; an edge
// whose host pair the network cannot connect is added masked (see the
// package comment).
func Build(in Input) (*Graph, error) {
	if in.Content == nil || in.Device == nil {
		return nil, fmt.Errorf("graph: content and device profiles are required")
	}
	if err := in.Content.Validate(); err != nil {
		return nil, err
	}
	if err := in.Device.Validate(); err != nil {
		return nil, err
	}
	if in.SenderHost == "" {
		in.SenderHost = string(SenderID)
	}
	if in.ReceiverHost == "" {
		in.ReceiverHost = string(ReceiverID)
	}

	g := NewGraph(in.SenderHost, in.ReceiverHost)
	g.nodeList = slices.Grow(g.nodeList, len(in.Services))
	g.hostList = slices.Grow(g.hostList, len(in.Services))
	for i := range in.Intermediaries {
		inter := &in.Intermediaries[i]
		g.SetHostResources(inter.Host, HostResources{CPUMips: inter.CPUMips, MemoryMB: inter.MemoryMB})
	}
	for _, s := range in.Services {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		if err := g.AddService(s); err != nil {
			return nil, err
		}
	}

	// Index services by accepted input format once, so edge wiring walks
	// only the services that actually match an output format instead of
	// re-scanning the full service list per output link. This turns the
	// wiring from O(S²·F) into O(S·F + E), preserving the declaration
	// order the quadratic scan produced.
	acceptsFormat := make(map[media.Format][]*service.Service)
	for _, s := range in.Services {
		for _, f := range s.Inputs {
			acceptsFormat[f] = append(acceptsFormat[f], s)
		}
	}

	// Size the edge list once: every edge below joins a variant or a
	// service output to an accepting service or to the receiver.
	bound := 0
	for _, v := range in.Content.Variants {
		bound += len(acceptsFormat[v.Format]) + 1
	}
	for _, s := range in.Services {
		for _, f := range s.Outputs {
			bound += len(acceptsFormat[f]) + 1
		}
	}
	g.all = make([]*Edge, 0, bound)

	// Sender → services and sender → receiver, one edge per variant
	// format accepted downstream. Two variants sharing a format would
	// produce byte-identical edges; senderSeen drops the duplicates
	// (distinct parameters keep both edges — they are different offers).
	type senderKey struct {
		to NodeID
		f  media.Format
	}
	senderSeen := make(map[senderKey][]media.Params)
	dupSender := func(to NodeID, f media.Format, p media.Params) bool {
		k := senderKey{to, f}
		for _, prev := range senderSeen[k] {
			if prev.Equal(p, 0) {
				return true
			}
		}
		senderSeen[k] = append(senderSeen[k], p)
		return false
	}
	// addLink annotates an edge from the network and adds it, masked
	// when the network cannot connect its host pair: the edge exists
	// structurally and a later refresh may unmask it.
	addLink := func(e *Edge, fromHost, toHost string) error {
		var connected bool
		e.BandwidthKbps, e.DelayMs, e.LossRate, connected = linkQoS(in.Net, fromHost, toHost)
		return g.addEdge(e, !connected)
	}
	for _, variant := range in.Content.Variants {
		for _, s := range acceptsFormat[variant.Format] {
			if dupSender(NodeID(s.ID), variant.Format, variant.Params) {
				continue
			}
			if err := addLink(&Edge{
				From: SenderID, To: NodeID(s.ID),
				Format:       variant.Format,
				SourceParams: variant.Params.Clone(),
			}, in.SenderHost, s.Host); err != nil {
				return nil, err
			}
		}
		if in.Device.Decodes(variant.Format) && !dupSender(ReceiverID, variant.Format, variant.Params) {
			if err := addLink(&Edge{
				From: SenderID, To: ReceiverID,
				Format:       variant.Format,
				SourceParams: variant.Params.Clone(),
			}, in.SenderHost, in.ReceiverHost); err != nil {
				return nil, err
			}
		}
	}

	// Service → service edges wherever an output link matches an input
	// link, and service → receiver for decodable outputs. A service
	// listing the same output format twice would duplicate its edges;
	// svcSeen collapses them (the duplicates are fully identical — same
	// endpoints, format and host pair).
	type svcKey struct {
		from, to NodeID
		f        media.Format
	}
	svcSeen := make(map[svcKey]bool)
	for _, from := range in.Services {
		for _, f := range from.Outputs {
			for _, to := range acceptsFormat[f] {
				if to.ID == from.ID {
					continue
				}
				k := svcKey{NodeID(from.ID), NodeID(to.ID), f}
				if svcSeen[k] {
					continue
				}
				svcSeen[k] = true
				if err := addLink(&Edge{From: NodeID(from.ID), To: NodeID(to.ID), Format: f}, from.Host, to.Host); err != nil {
					return nil, err
				}
			}
			k := svcKey{NodeID(from.ID), ReceiverID, f}
			if in.Device.Decodes(f) && !svcSeen[k] {
				svcSeen[k] = true
				if err := addLink(&Edge{From: NodeID(from.ID), To: ReceiverID, Format: f}, from.Host, in.ReceiverHost); err != nil {
					return nil, err
				}
			}
		}
	}

	return g, nil
}

// linkQoS returns the bandwidth, one-way delay and loss the overlay
// offers between two hosts, and whether the hosts are connected at all:
// an edge between disconnected hosts is masked. Delay uses the direct
// link when present and the minimum-delay route otherwise. A nil network
// means unconstrained connectivity. Shared by Build and the Cache's
// in-place refresh.
func linkQoS(net *overlay.Network, fromHost, toHost string) (kbps, delayMs, loss float64, connected bool) {
	if net == nil {
		return math.Inf(1), 0, 0, true
	}
	v := net.AvailableBandwidth(fromHost, toHost)
	if v <= 0 {
		return 0, 0, 0, false
	}
	if fromHost == toHost {
		return v, 0, 0, true
	}
	if _, d, l, direct := net.Link(fromHost, toHost); direct {
		return v, d, l, true
	}
	if _, d, ok := net.MinDelayPath(fromHost, toHost); ok {
		return v, d, 0, true
	}
	return v, 0, 0, true
}

// BuildFromSet builds the graph from a full profile set, deploying every
// intermediary's services and using the set's static network profile for
// bandwidths. The sender is hosted on "sender" and the receiver on the
// device ID unless the network profile names a "receiver" host.
func BuildFromSet(set *profile.Set) (*Graph, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	net, err := overlay.FromProfile(set.Network)
	if err != nil {
		return nil, err
	}
	var services []*service.Service
	for i := range set.Intermediaries {
		services = append(services, set.Intermediaries[i].Services...)
	}
	receiverHost := set.Device.ID
	if net.HasNode(string(ReceiverID)) {
		receiverHost = string(ReceiverID)
	}
	return Build(Input{
		Content:        &set.Content,
		Device:         &set.Device,
		Services:       services,
		Net:            net,
		SenderHost:     string(SenderID),
		ReceiverHost:   receiverHost,
		Intermediaries: set.Intermediaries,
	})
}

// CollectServices flattens every intermediary's service list, preserving
// declaration order.
func CollectServices(intermediaries []profile.Intermediary) []*service.Service {
	var out []*service.Service
	for i := range intermediaries {
		out = append(out, intermediaries[i].Services...)
	}
	return out
}

// SenderVariantParams returns the QoS parameters of the content variant
// flowing over a sender-outgoing edge. It falls back to nil for non-sender
// edges.
func SenderVariantParams(e *Edge) media.Params { return e.SourceParams }
