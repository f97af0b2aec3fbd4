package overlay

import "sort"

// LinkRef names one directed link. It is the unit of change the fault →
// overlay → storm-controller event path carries: a fault that degrades
// link L is reported as the set of LinkRefs it touched, and the storm
// re-plans the classes whose chains ride those links.
type LinkRef struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// LinksOf returns every directed link touching the host (as source or
// destination), sorted. Fault handlers use it to expand a host-level
// event into the link set it degrades.
func (n *Network) LinksOf(host string) []LinkRef {
	n.mu.RLock()
	refs := make([]LinkRef, 0, 4)
	for e := range n.links {
		if e.from == host || e.to == host {
			refs = append(refs, LinkRef{From: e.from, To: e.to})
		}
	}
	n.mu.RUnlock()
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].From != refs[j].From {
			return refs[i].From < refs[j].From
		}
		return refs[i].To < refs[j].To
	})
	return refs
}
