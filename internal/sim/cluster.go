package sim

// cluster.go is the deterministic replicated-tier failover harness: it
// stands up a small cluster of composition nodes — real HTTP servers
// over real sockets, one hash-chained journal per node, WAL shipping to
// the rendezvous-elected follower — registers them in an in-process
// membership table under leases driven by a fake clock, creates Figure 6
// sessions through the routing tier, then kills one node mid-run and
// lets the router promote its follower.
//
// The contract it checks is the cluster analogue of crash.go's:
//
//   - the promoted replica's session state hashes are identical to the
//     hashes the dead primary last published — replication is
//     byte-exact, not approximate;
//   - after the promotion's host-crash fault and Reconcile, every
//     bandwidth hold of every adopted session sits on a usable link and
//     each region overlay's reserved total equals what its members hold
//     — zero leaked kbps;
//   - the dead node's zombie shipper is fenced: a resurrected primary
//     cannot fork the adopted sessions;
//   - every adopted session remains reachable through the router, with
//     the dead node's host marked down.
//
// Everything random derives from the seed (the victim choice), so a
// failing run reproduces exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"qoschain/internal/cluster"
	"qoschain/internal/httpapi"
	"qoschain/internal/metrics"
	"qoschain/internal/registry"
	"qoschain/internal/trace"
)

// ClusterSpec configures one failover scenario.
type ClusterSpec struct {
	// StateRoot is the directory holding one journal tree per node (a
	// fresh temp dir per scenario).
	StateRoot string
	// Seed derives the victim choice.
	Seed int64
	// Nodes is the cluster size (default 3).
	Nodes int
	// Sessions is how many Figure 6 sessions the run creates through
	// the router (default 6).
	Sessions int
	// SnapshotEvery compacts each primary journal this often (default
	// 4, small enough that late-joining followers exercise the snapshot
	// bootstrap path).
	SnapshotEvery int
	// Lease is the membership lease TTL on the fake clock (default 5s).
	Lease time.Duration
	// Counters, when set, receives the replication.*/cluster.* series —
	// a caller running several trials shares one sink so the closing
	// distributions aggregate the sweep.
	Counters *metrics.Counters
}

// ClusterReport is one scenario's outcome.
type ClusterReport struct {
	Seed     int64 `json:"seed"`
	Nodes    int   `json:"nodes"`
	Sessions int   `json:"sessions"`
	// Victim is the killed node, VictimHost its overlay host, Adopter
	// the follower the router promoted.
	Victim     string `json:"victim"`
	VictimHost string `json:"victimHost"`
	Adopter    string `json:"adopter"`
	// Adopted counts sessions taken over (the victim's primaries).
	Adopted int `json:"adopted"`
	// ShippedRecords is the journal record volume replicated cluster-wide
	// before the kill.
	ShippedRecords int64 `json:"shippedRecords"`
	// HashesIdentical reports the byte-identity check: the promotion
	// report's pre-fault state hashes against the hashes the victim
	// published before it was killed.
	HashesIdentical bool `json:"hashesIdentical"`
	// Recomposed/ReleasedKbps summarize the adopter's post-promotion
	// reconcile sweep.
	Recomposed   int     `json:"recomposed"`
	ReleasedKbps float64 `json:"releasedKbps"`
	// LeakKbps is reserved bandwidth no adopted session accounts for
	// after the sweep (must be 0).
	LeakKbps float64 `json:"leakKbps"`
	// RecoveryMs is the router-measured end-to-end promotion latency:
	// from deciding the node is dead to the adopter's reconcile done.
	RecoveryMs float64 `json:"recoveryMs"`
	// ZombieFenced reports that the dead node's shipper was refused
	// after the promotion.
	ZombieFenced bool `json:"zombieFenced"`
	// ServedAfterFailover counts adopted sessions the router still
	// serves (each must also list the victim's host as down).
	ServedAfterFailover int `json:"servedAfterFailover"`
	// Err describes a contract violation; empty means the scenario
	// passed.
	Err string `json:"err,omitempty"`
}

// OK reports whether the scenario upheld the failover contract.
func (r *ClusterReport) OK() bool {
	return r.Err == "" && r.Adopted > 0 && r.HashesIdentical &&
		r.LeakKbps == 0 && r.ZombieFenced && r.ServedAfterFailover == r.Adopted
}

// clusterNode is one running node: the in-process handle plus its HTTP
// server. The storm harness additionally gives each node its own
// metrics registry and tracer (nil in the plain failover harness).
type clusterNode struct {
	node   *cluster.Node
	srv    *http.Server
	ln     net.Listener
	member registry.Member
	reg    *metrics.Registry
	tracer *trace.Tracer
}

func (cn *clusterNode) close() {
	cn.srv.Close()  //nolint:errcheck
	cn.node.Close() //nolint:errcheck
}

// startClusterNode opens a node's journal tree and serves its cluster +
// session API on a loopback socket.
func startClusterNode(id, host, dir string, snapshotEvery int, counters *metrics.Counters) (*clusterNode, error) {
	n, err := cluster.NewNode(cluster.NodeConfig{
		ID: id, StateDir: dir, Host: host,
		SnapshotEvery: snapshotEvery, Counters: counters,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.Close() //nolint:errcheck
		return nil, err
	}
	api := httpapi.HandlerWithOptions(httpapi.Options{Sessions: n})
	srv := &http.Server{Handler: n.Handler(api)}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return &clusterNode{
		node: n, srv: srv, ln: ln,
		member: registry.Member{ID: id, Addr: ln.Addr().String(), Host: host},
	}, nil
}

// chainHosts resolves which overlay hosts the composed Figure 6 chain
// actually routes through, in path order — the hosts whose death forces
// a failover re-composition.
func chainHosts(ctx context.Context) ([]string, error) {
	set := Figure6Set()
	plan, err := cluster.LocalPlanner{}.Plan(ctx, &set, "")
	if err != nil {
		return nil, fmt.Errorf("sim: planning figure 6 chain: %w", err)
	}
	hostOf := map[string]string{}
	for _, in := range set.Intermediaries {
		for _, svc := range in.Services {
			hostOf[string(svc.ID)] = in.Host
		}
	}
	var hosts []string
	seen := map[string]bool{}
	for _, hop := range plan.Path {
		if h, ok := hostOf[hop]; ok && !seen[h] {
			hosts = append(hosts, h)
			seen[h] = true
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("sim: figure 6 chain has no intermediary hosts")
	}
	return hosts, nil
}

// shipRound pushes every primary's outstanding journal suffix to its
// rendezvous follower. Returns the number of records shipped.
func shipRound(ctx context.Context, nodes map[string]*clusterNode, members []registry.Member) (int, error) {
	total := 0
	for _, m := range members {
		cn := nodes[m.ID]
		if cn == nil {
			continue
		}
		follower, ok := cluster.FollowerOf(members, m.ID)
		if !ok {
			continue
		}
		cn.node.Shipper().SetPeer(follower)
		n, err := cn.node.Shipper().Ship(ctx)
		if err != nil {
			return total, fmt.Errorf("sim: %s shipping to %s: %w", m.ID, follower.ID, err)
		}
		total += n
	}
	return total, nil
}

// RunCluster executes one scenario: start, replicate, kill, promote,
// verify.
func RunCluster(spec ClusterSpec) (*ClusterReport, error) {
	if spec.Nodes <= 0 {
		spec.Nodes = 3
	}
	if spec.Sessions <= 0 {
		spec.Sessions = 6
	}
	if spec.SnapshotEvery == 0 {
		spec.SnapshotEvery = 4
	}
	if spec.Lease <= 0 {
		spec.Lease = 5 * time.Second
	}
	if spec.Counters == nil {
		spec.Counters = metrics.NewCounters()
	}
	rep := &ClusterReport{Seed: spec.Seed, Nodes: spec.Nodes}
	rng := rand.New(rand.NewSource(spec.Seed))
	ctx := context.Background()

	hosts, err := chainHosts(ctx)
	if err != nil {
		return rep, err
	}

	// Membership: an in-process lease table on a fake clock, so expiry
	// is deterministic. Every node's overlay host is one the composed
	// chain routes through — whichever node dies, its sessions must
	// re-compose around its host.
	clock := registry.NewFakeClock()
	reg := registry.NewWithClock(clock)

	nodes := map[string]*clusterNode{}
	defer func() {
		for _, cn := range nodes {
			cn.close()
		}
	}()
	var members []registry.Member
	for i := 1; i <= spec.Nodes; i++ {
		id := fmt.Sprintf("n%d", i)
		host := hosts[(i-1)%len(hosts)]
		cn, err := startClusterNode(id, host, fmt.Sprintf("%s/%s", spec.StateRoot, id),
			spec.SnapshotEvery, spec.Counters)
		if err != nil {
			return rep, fmt.Errorf("sim: starting %s: %w", id, err)
		}
		nodes[id] = cn
		if err := reg.Join(cn.member, spec.Lease); err != nil {
			return rep, fmt.Errorf("sim: joining %s: %w", id, err)
		}
		members = append(members, cn.member)
	}

	// Routing tier: plans locally, proxies session traffic to owners.
	router := cluster.NewRouter(cluster.RouterConfig{
		Planner:  cluster.LocalPlanner{},
		Counters: spec.Counters,
	})
	router.UpdateMembers(ctx, reg.Members())
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	rsrv := &http.Server{Handler: router}
	go rsrv.Serve(rln) //nolint:errcheck
	defer rsrv.Close() //nolint:errcheck
	base := "http://" + rln.Addr().String()

	// Create sessions through the router, shipping between creates so
	// replication lag is sampled across the run rather than once.
	shippedBase := spec.Counters.Get(metrics.CounterReplicationShippedRecords)
	set := Figure6Set()
	var setBuf bytes.Buffer
	if err := set.Encode(&setBuf); err != nil {
		return rep, err
	}
	for i := 0; i < spec.Sessions; i++ {
		url := fmt.Sprintf("%s/v1/sessions?reserve=1&floor=0.3", base)
		resp, err := http.Post(url, "application/json", bytes.NewReader(setBuf.Bytes()))
		if err != nil {
			return rep, fmt.Errorf("sim: creating session %d: %w", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusCreated {
			return rep, fmt.Errorf("sim: creating session %d: %s: %s", i, resp.Status, body)
		}
		if _, err := shipRound(ctx, nodes, members); err != nil {
			return rep, err
		}
	}
	rep.Sessions = spec.Sessions
	rep.ShippedRecords = spec.Counters.Get(metrics.CounterReplicationShippedRecords) - shippedBase

	// Pick the victim and record the truth it last published: its
	// primary state hashes and the sessions it owns.
	victim := members[rng.Intn(len(members))]
	rep.Victim, rep.VictimHost = victim.ID, victim.Host
	preKill := nodes[victim.ID].node.Status()
	if preKill.Sessions == 0 {
		rep.Err = fmt.Sprintf("victim %s owned no sessions — round-robin placement broken", victim.ID)
		return rep, nil
	}

	// Kill: the HTTP server dies, the lease is never renewed again. The
	// node object stays alive as a zombie so its shipper can prove the
	// fence. Survivors renew, the clock rolls past the victim's expiry,
	// and the router reacts to the thinned membership.
	nodes[victim.ID].srv.Close() //nolint:errcheck
	clock.Advance(spec.Lease / 2)
	for _, m := range members {
		if m.ID != victim.ID {
			if err := reg.RenewMember(m.ID, spec.Lease); err != nil {
				return rep, fmt.Errorf("sim: renewing %s: %w", m.ID, err)
			}
		}
	}
	// Now the victim's original lease lapses while the renewed ones hold.
	clock.Advance(spec.Lease/2 + time.Second)
	live := reg.Members()
	if len(live) != spec.Nodes-1 {
		rep.Err = fmt.Sprintf("expected %d live members after expiry, got %d", spec.Nodes-1, len(live))
		return rep, nil
	}
	promotions := router.UpdateMembers(ctx, live)
	if len(promotions) != 1 {
		rep.Err = fmt.Sprintf("expected 1 promotion, got %d", len(promotions))
		return rep, nil
	}
	promo := promotions[0]
	if promo.Err != "" {
		rep.Err = fmt.Sprintf("promotion failed: %s", promo.Err)
		return rep, nil
	}
	rep.Adopter = promo.Adopter
	rep.RecoveryMs = promo.TookMs
	report := promo.Report
	rep.Adopted = report.Adopted
	if report.Reconcile != nil {
		rep.Recomposed = report.Reconcile.Recomposed
		rep.ReleasedKbps = report.Reconcile.ReleasedKbps
	}

	// Byte identity: the replica's pre-fault hashes must equal what the
	// dead primary last published, session for session.
	rep.HashesIdentical = len(report.StateHashes) == len(preKill.StateHashes)
	for id, h := range preKill.StateHashes {
		if report.StateHashes[id] != h {
			rep.HashesIdentical = false
		}
	}
	if !rep.HashesIdentical {
		rep.Err = fmt.Sprintf("adopted state diverged from the victim's published hashes\n got %v\nwant %v",
			report.StateHashes, preKill.StateHashes)
		return rep, nil
	}

	// Zero-leak audit on the adopter: every hold sits on a usable link
	// and each region of the adopted replica balances.
	adopter := nodes[promo.Adopter]
	var adoptedIDs []string
	for id := range preKill.StateHashes {
		adoptedIDs = append(adoptedIDs, id)
	}
	sort.Strings(adoptedIDs)
	for _, id := range adoptedIDs {
		ms, ok := adopter.node.Get(id)
		if !ok {
			rep.Err = fmt.Sprintf("adopter %s does not serve adopted session %s", promo.Adopter, id)
			return rep, nil
		}
		for _, r := range ms.Held() {
			if !ms.Net().Usable(r.From, r.To) {
				rep.Err = fmt.Sprintf("session %s holds %s->%s on an unusable link", id, r.From, r.To)
				return rep, nil
			}
		}
	}
	rm, ok := adopter.node.ReplicaManager(victim.ID)
	if !ok {
		return rep, fmt.Errorf("sim: adopter %s holds no replica of %s", promo.Adopter, victim.ID)
	}
	rep.LeakKbps = regionLeak(rm.StormController())
	if rep.LeakKbps != 0 {
		rep.Err = fmt.Sprintf("leaked %.1f kbps of reservations", rep.LeakKbps)
		return rep, nil
	}

	// Fencing: the zombie primary's next ship must be refused.
	if _, err := nodes[victim.ID].node.Shipper().Ship(ctx); err == nil {
		rep.Err = "zombie shipper was accepted after promotion"
		return rep, nil
	}
	rep.ZombieFenced = nodes[victim.ID].node.Shipper().Fenced()
	if !rep.ZombieFenced {
		rep.Err = "zombie shipper rejected but not fenced"
		return rep, nil
	}

	// Routing: every adopted session is still reachable through the
	// router, with the victim's host marked down.
	for _, id := range adoptedIDs {
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			return rep, fmt.Errorf("sim: routing adopted %s: %w", id, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			rep.Err = fmt.Sprintf("router lost adopted session %s: %s", id, resp.Status)
			return rep, nil
		}
		var st struct {
			DownHosts []string `json:"downHosts"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return rep, fmt.Errorf("sim: decoding adopted %s: %w", id, err)
		}
		if !contains(st.DownHosts, victim.Host) {
			rep.Err = fmt.Sprintf("adopted session %s does not mark host %s down (down: %s)",
				id, victim.Host, strings.Join(st.DownHosts, ","))
			return rep, nil
		}
		rep.ServedAfterFailover++
	}
	return rep, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
