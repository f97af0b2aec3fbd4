package overlay

import "fmt"

// Failure states: fault injection marks hosts and links as down without
// destroying their configuration, so a recovery restores the exact
// pre-failure characteristics (capacity, delay, loss, reservations). A
// down host or link is invisible to every query — Link, bandwidth,
// routing, Snapshot — and Reserve refuses it, but Release still works so
// sessions can withdraw cleanly from a crashed chain.

// FailHost marks a host as crashed: every link touching it stops
// carrying traffic. Failing an unknown or already-down host is an error.
func (n *Network) FailHost(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[id] {
		return fmt.Errorf("overlay: no host %s", id)
	}
	if n.down[id] {
		return fmt.Errorf("overlay: host %s is already down", id)
	}
	n.down[id] = true
	n.gen++
	return nil
}

// RecoverHost brings a crashed host back. Links to still-healthy
// neighbors resume at their retained characteristics.
func (n *Network) RecoverHost(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[id] {
		return fmt.Errorf("overlay: no host %s", id)
	}
	if !n.down[id] {
		return fmt.Errorf("overlay: host %s is not down", id)
	}
	delete(n.down, id)
	n.gen++
	return nil
}

// HostDown reports whether the host is currently crashed.
func (n *Network) HostDown(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down[id]
}

// DownHosts returns the currently crashed hosts (unsorted count is small;
// callers sort if they need determinism).
func (n *Network) DownHosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.down))
	for id := range n.down {
		out = append(out, id)
	}
	return out
}

// FailLink marks the directed link as down, retaining its configuration
// for recovery.
func (n *Network) FailLink(from, to string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	if l.down {
		return fmt.Errorf("overlay: link %s->%s is already down", from, to)
	}
	l.down = true
	n.gen++
	return nil
}

// RecoverLink brings a failed link back at its retained characteristics.
func (n *Network) RecoverLink(from, to string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	if !l.down {
		return fmt.Errorf("overlay: link %s->%s is not down", from, to)
	}
	l.down = false
	n.gen++
	return nil
}

// LinkDown reports whether the directed link itself is failed (host
// crashes are reported separately by HostDown).
func (n *Network) LinkDown(from, to string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[edge{from, to}]
	return ok && l.down
}

// Usable reports whether the directed link exists and currently carries
// traffic: the link itself is up and neither endpoint host is crashed.
// Recovery uses it to decide whether a re-applied bandwidth hold still
// sits on a live link.
func (n *Network) Usable(from, to string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e := edge{from, to}
	l, ok := n.links[e]
	return ok && n.usableLocked(e, l)
}

// SetLoss updates an existing link's loss rate — a loss spike.
func (n *Network) SetLoss(from, to string, rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("overlay: loss rate %v outside [0,1]", rate)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	l.lossRate = rate
	n.gen++
	return nil
}

// SetDelay updates an existing link's one-way delay — a latency spike.
func (n *Network) SetDelay(from, to string, delayMs float64) error {
	if delayMs < 0 {
		return fmt.Errorf("overlay: negative delay %v", delayMs)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	l.delayMs = delayMs
	n.gen++
	return nil
}
