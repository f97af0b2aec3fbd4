package fault

import (
	"sort"

	"qoschain/internal/overlay"
)

// ChangedLinks reduces a batch of fired faults to the set of directed
// links whose QoS they changed — the unit the storm controller's
// incremental graph repair consumes. Link-scoped faults contribute their
// one link; host-scoped faults expand to every link touching the host
// (looked up on the network, so links of hosts unknown to it contribute
// nothing); service faults change no link. The result is deduplicated
// and sorted.
func ChangedLinks(fired []Fault, net *overlay.Network) []overlay.LinkRef {
	seen := make(map[overlay.LinkRef]bool)
	for _, f := range fired {
		switch f.Kind {
		case LinkDown, LinkUp, BandwidthCollapse, BandwidthRestore, LossSpike, DelaySpike:
			seen[overlay.LinkRef{From: f.From, To: f.To}] = true
		case HostCrash, HostRecover:
			for _, l := range net.LinksOf(f.Host) {
				seen[l] = true
			}
		}
	}
	refs := make([]overlay.LinkRef, 0, len(seen))
	for l := range seen {
		refs = append(refs, l)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].From != refs[j].From {
			return refs[i].From < refs[j].From
		}
		return refs[i].To < refs[j].To
	})
	return refs
}
