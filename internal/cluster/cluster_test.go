package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"qoschain/internal/httpapi"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/registry"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// clusterSet is the two-path profile the failover tests compose over:
// sender→p1→d carries 18 fps, sender→p2→d a degraded 9 fps — so a
// session adopted after p1's host dies has somewhere to fail over to.
func clusterSet() *profile.Set {
	return &profile.Set{
		User: profile.User{
			Name: "alice",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, 30),
			},
		},
		Content: profile.Content{ID: "c", Variants: []media.Descriptor{
			{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Device: profile.Device{ID: "d", Software: profile.Software{
			Decoders: []media.Format{media.VideoH263},
		}},
		Network: profile.Network{Links: []profile.Link{
			{From: "sender", To: "p1", BandwidthKbps: 2400},
			{From: "p1", To: "d", BandwidthKbps: 1800},
			{From: "sender", To: "p2", BandwidthKbps: 2400},
			{From: "p2", To: "d", BandwidthKbps: 900},
		}},
		Intermediaries: []profile.Intermediary{
			{
				Host: "p1", CPUMips: 1000, MemoryMB: 256,
				Services: []*service.Service{
					service.FormatConverter("conv1", media.VideoMPEG1, media.VideoH263),
				},
			},
			{
				Host: "p2", CPUMips: 1000, MemoryMB: 256,
				Services: []*service.Service{
					service.FormatConverter("conv2", media.VideoMPEG1, media.VideoH263),
				},
			},
		},
	}
}

// testNode is one in-process cluster member with a real HTTP server.
type testNode struct {
	node   *Node
	srv    *httptest.Server
	member registry.Member
}

// startNode brings up a node whose HTTP surface is the cluster routes
// over the full session API.
func startNode(t *testing.T, id, host string, counters *metrics.Counters, snapshotEvery int) *testNode {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ID:            id,
		StateDir:      filepath.Join(t.TempDir(), id),
		Host:          host,
		SnapshotEvery: snapshotEvery,
		Counters:      counters,
	})
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	srv := httptest.NewServer(n.Handler(httpapi.HandlerWithOptions(httpapi.Options{Sessions: n})))
	t.Cleanup(func() { srv.Close(); n.Close() })
	return &testNode{
		node:   n,
		srv:    srv,
		member: registry.Member{ID: id, Addr: strings.TrimPrefix(srv.URL, "http://"), Host: host},
	}
}

func createViaRouter(t *testing.T, router http.Handler, set *profile.Set) session.State {
	t.Helper()
	var body bytes.Buffer
	if err := set.Encode(&body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions?reserve=1", &body)
	w := httptest.NewRecorder()
	router.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create via router = %d: %s", w.Code, w.Body.String())
	}
	var st session.State
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func routerGet(t *testing.T, router http.Handler, path string) (int, []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	router.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.Bytes()
}

// shipAll drains every node's journal to its shard-map follower.
func shipAll(t *testing.T, ctx context.Context, nodes map[string]*testNode, live []registry.Member) {
	t.Helper()
	for id, tn := range nodes {
		f, ok := FollowerOf(live, id)
		if !ok {
			continue
		}
		tn.node.Shipper().SetPeer(f)
		if _, err := tn.node.Shipper().Ship(ctx); err != nil {
			t.Fatalf("ship %s -> %s: %v", id, f.ID, err)
		}
		if peer, acked, _ := tn.node.Shipper().Peer(); acked != tn.node.LastSeq() {
			t.Fatalf("ship %s -> %s stalled at %d of %d", id, peer.ID, acked, tn.node.LastSeq())
		}
	}
}

// TestClusterFailover is the end-to-end failover path: sessions created
// through the router, journals shipped to followers, the owning node
// killed, the follower promoted — byte-identical adopted state, the
// dead host's crash injected, and no reservation left on an unusable
// link.
func TestClusterFailover(t *testing.T) {
	ctx := context.Background()
	counters := metrics.NewCounters()
	nodes := map[string]*testNode{}
	var live []registry.Member
	for id, host := range map[string]string{"n1": "p1", "n2": "p2", "n3": "p1"} {
		tn := startNode(t, id, host, counters, 0)
		nodes[id] = tn
		live = append(live, tn.member)
	}

	router := NewRouter(RouterConfig{Planner: LocalPlanner{}, Counters: counters})
	router.UpdateMembers(ctx, live)

	// Three sessions round-robin across the members (sorted: n1,n2,n3).
	var ids []string
	for i := 0; i < 3; i++ {
		st := createViaRouter(t, router, clusterSet())
		ids = append(ids, st.ID)
		if want := fmt.Sprintf("n%d-s1", i+1); st.ID != want {
			t.Fatalf("create %d landed as %q, want %q", i, st.ID, want)
		}
		// Path vertices are service IDs: conv1 runs on host p1.
		if len(st.Path) < 2 || st.Path[1] != "conv1" {
			t.Fatalf("session %s path = %v, want the conv1 (p1) chain", st.ID, st.Path)
		}
	}

	// Replicate, then compare every follower's mirror hash-for-hash.
	shipAll(t, ctx, nodes, live)
	for id, tn := range nodes {
		f, _ := FollowerOf(live, id)
		primaryHashes := hashAll(tn.node.Manager().List())
		var mirror *ReplicaStatus
		for _, rs := range nodes[f.ID].node.Status().Replicas {
			if rs.Source == id {
				rs := rs
				mirror = &rs
			}
		}
		if mirror == nil {
			t.Fatalf("%s holds no replica of %s", f.ID, id)
		}
		if mirror.AppliedSeq != tn.node.LastSeq() {
			t.Fatalf("replica of %s at %d, primary at %d", id, mirror.AppliedSeq, tn.node.LastSeq())
		}
		if len(mirror.StateHashes) != len(primaryHashes) {
			t.Fatalf("replica of %s has %d sessions, primary %d", id, len(mirror.StateHashes), len(primaryHashes))
		}
		for sid, h := range primaryHashes {
			if mirror.StateHashes[sid] != h {
				t.Fatalf("replica state of %s diverged for %s", id, sid)
			}
		}
	}

	// /healthz on a member must expose the primary role and both
	// stream directions.
	resp, err := http.Get(nodes["n1"].srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Replication *httpapi.ReplicationStatus `json:"replication"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Replication == nil {
		t.Fatalf("healthz replication missing: %v", err)
	}
	if health.Replication.Role != "primary" || health.Replication.NodeID != "n1" {
		t.Fatalf("replication status = %+v", health.Replication)
	}
	dirs := map[string]bool{}
	for _, s := range health.Replication.Streams {
		dirs[s.Direction] = true
	}
	if !dirs["ship"] || !dirs["apply"] {
		t.Fatalf("streams missing a direction: %+v", health.Replication.Streams)
	}

	// Kill n1 (fronting overlay host p1). Its sessions must surface on
	// the follower with the exact pre-kill state.
	victim := nodes["n1"]
	preKill := hashAll(victim.node.Manager().List())
	victim.srv.Close()
	adopterID := ""
	if f, ok := FollowerOf(live, "n1"); ok {
		adopterID = f.ID
	}

	var after []registry.Member
	for _, m := range live {
		if m.ID != "n1" {
			after = append(after, m)
		}
	}
	proms := router.UpdateMembers(ctx, after)
	if len(proms) != 1 || proms[0].Err != "" {
		t.Fatalf("promotions = %+v", proms)
	}
	if proms[0].Dead != "n1" || proms[0].Adopter != adopterID {
		t.Fatalf("promotion routed to %s, want follower %s", proms[0].Adopter, adopterID)
	}
	rep := proms[0].Report
	if rep.Adopted != 1 || rep.FailHost != "p1" {
		t.Fatalf("report = %+v", rep)
	}
	// Byte-identity: the adopter's pre-fault hashes equal the dead
	// primary's last state.
	if len(rep.StateHashes) != len(preKill) {
		t.Fatalf("adopted %d sessions, primary had %d", len(rep.StateHashes), len(preKill))
	}
	for sid, h := range preKill {
		if rep.StateHashes[sid] != h {
			t.Fatalf("adopted state of %s is not byte-identical", sid)
		}
	}
	// The injected host crash storms the adopted session's class off p1
	// at once, so the post-adoption sweep finds no stale hold left.
	if rep.Reconcile == nil || rep.Reconcile.Checked != 1 || rep.Reconcile.Recomposed != 0 {
		t.Fatalf("reconcile = %+v", rep.Reconcile)
	}

	// The adopted session routes through the router to the adopter and
	// has failed over off the dead host.
	code, body := routerGet(t, router, "/v1/sessions/"+ids[0])
	if code != http.StatusOK {
		t.Fatalf("get adopted session = %d: %s", code, body)
	}
	var st session.State
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Path) < 2 || st.Path[1] != "conv2" || st.Recompositions != 1 {
		t.Fatalf("adopted session path = %v after %d recompositions, want one failover through conv2 (p2)",
			st.Path, st.Recompositions)
	}
	found := false
	for _, h := range st.DownHosts {
		if h == "p1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("adopted session downHosts = %v, want p1", st.DownHosts)
	}

	// Zero leaked reservations: every hold of every adopted session
	// sits on a usable link.
	adopter := nodes[adopterID]
	for _, ms := range adopter.node.List() {
		for _, r := range ms.Held() {
			if !ms.Net().Usable(r.From, r.To) {
				t.Fatalf("session %s leaks %.0f kbps on dead link %s->%s", ms.ID(), r.Kbps, r.From, r.To)
			}
		}
	}

	// Fencing: the resurrected primary's shipper is refused.
	if _, err := victim.node.Shipper().Ship(ctx); err == nil {
		t.Fatal("zombie primary shipped into its promoted follower")
	}
	if !victim.node.Shipper().Fenced() {
		t.Fatal("shipper not fenced after rejection")
	}
	if counters.Get(metrics.CounterReplicationShipRejected) == 0 {
		t.Fatal("fenced ship not counted as rejected")
	}
	if counters.Get(metrics.CounterClusterPromotions) != 1 {
		t.Fatalf("promotions counter = %d", counters.Get(metrics.CounterClusterPromotions))
	}

	// The surviving members' sessions are untouched and the merged
	// list sees all three sessions.
	code, body = routerGet(t, router, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list struct {
		Sessions []session.State `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 3 {
		t.Fatalf("merged list has %d sessions, want 3", len(list.Sessions))
	}

	// Deleting the adopted session releases it from the adopter.
	w := httptest.NewRecorder()
	router.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+ids[0], nil))
	if w.Code != http.StatusOK {
		t.Fatalf("delete adopted = %d: %s", w.Code, w.Body.String())
	}
	if _, ok := adopter.node.Get(ids[0]); ok {
		t.Fatal("adopted session still present after delete")
	}
}

// TestShipSnapshotCatchup: a follower that joins after the primary
// compacted must bootstrap from the shipped snapshot and land on the
// identical state.
func TestShipSnapshotCatchup(t *testing.T) {
	ctx := context.Background()
	counters := metrics.NewCounters()
	// SnapshotEvery 1 compacts after every command, so by the time the
	// follower appears the early records are gone from the journal.
	primary := startNode(t, "n1", "p1", counters, 1)
	follower := startNode(t, "n2", "p2", counters, 0)

	for i := 0; i < 3; i++ {
		if _, err := primary.node.CreateCtx(ctx, session.CreateSpec{Set: *clusterSet(), Reserve: true}); err != nil {
			t.Fatal(err)
		}
	}
	primary.node.Shipper().SetPeer(follower.member)
	if _, err := primary.node.Shipper().Ship(ctx); err != nil {
		t.Fatalf("snapshot catch-up ship: %v", err)
	}
	if counters.Get(metrics.CounterReplicationSnapshotShips) == 0 {
		t.Fatal("catch-up did not ship a snapshot")
	}
	want := hashAll(primary.node.Manager().List())
	var mirror map[string]string
	for _, rs := range follower.node.Status().Replicas {
		if rs.Source == "n1" {
			mirror = rs.StateHashes
		}
	}
	if len(mirror) != len(want) {
		t.Fatalf("follower mirrors %d sessions, want %d", len(mirror), len(want))
	}
	for sid, h := range want {
		if mirror[sid] != h {
			t.Fatalf("snapshot-bootstrapped state of %s diverged", sid)
		}
	}
}

// TestShipRejectsTamper: a batch corrupted in flight must be rejected
// by chain verification without moving the follower, and the next
// honest ship must converge.
func TestShipRejectsTamper(t *testing.T) {
	ctx := context.Background()
	counters := metrics.NewCounters()
	primary := startNode(t, "n1", "p1", counters, 0)
	follower := startNode(t, "n2", "p2", counters, 0)

	if _, err := primary.node.CreateCtx(ctx, session.CreateSpec{Set: *clusterSet()}); err != nil {
		t.Fatal(err)
	}
	b, err := primary.node.Manager().ReadShip(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := encodeShip("n1", b)
	req.Records[0].Data[0] ^= 0x40
	body, _ := json.Marshal(req)
	resp, err := http.Post(follower.srv.URL+ShipPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr shipResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.OK || sr.AppliedSeq != 0 {
		t.Fatalf("tampered batch accepted: %+v", sr)
	}
	if counters.Get(metrics.CounterReplicationShipRejected) == 0 {
		t.Fatal("rejection not counted")
	}

	// Honest retry from the follower-reported offset converges.
	primary.node.Shipper().SetPeer(follower.member)
	if _, err := primary.node.Shipper().Ship(ctx); err != nil {
		t.Fatalf("honest ship after tamper: %v", err)
	}
	for _, rs := range follower.node.Status().Replicas {
		if rs.Source == "n1" && rs.AppliedSeq != primary.node.LastSeq() {
			t.Fatalf("follower at %d after honest ship, primary at %d", rs.AppliedSeq, primary.node.LastSeq())
		}
	}
}

// TestPlannerParity: the local and remote planners are the same
// algorithm behind the same interface — identical plans for an
// identical profile set.
func TestPlannerParity(t *testing.T) {
	srv := httptest.NewServer(httpapi.Handler())
	defer srv.Close()
	ctx := context.Background()

	local, err := LocalPlanner{}.Plan(ctx, clusterSet(), "")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := (&RemotePlanner{Base: strings.TrimPrefix(srv.URL, "http://")}).Plan(ctx, clusterSet(), "")
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(local)
	rj, _ := json.Marshal(remote)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("planner divergence:\nlocal  %s\nremote %s", lj, rj)
	}
	if len(local.Path) == 0 || local.Satisfaction <= 0 {
		t.Fatalf("degenerate plan: %+v", local)
	}
}

// TestNodeRestartKeepsPromotion: an adopting node that restarts must
// come back with the replica still promoted (fenced and serving).
func TestNodeRestartKeepsPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	primary := startNode(t, "n1", "p1", nil, 0)
	n2, err := NewNode(NodeConfig{ID: "n2", StateDir: filepath.Join(dir, "n2"), Host: "p2"})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(n2.Handler(nil))
	if _, err := primary.node.CreateCtx(ctx, session.CreateSpec{Set: *clusterSet(), Reserve: true}); err != nil {
		t.Fatal(err)
	}
	primary.node.Shipper().SetPeer(registry.Member{ID: "n2", Addr: strings.TrimPrefix(srv2.URL, "http://"), Host: "p2"})
	if _, err := primary.node.Shipper().Ship(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Promote("n1", "p1"); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewNode(NodeConfig{ID: "n2", StateDir: filepath.Join(dir, "n2"), Host: "p2"})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, ok := reopened.Get("n1-s1"); !ok {
		t.Fatal("adopted session lost across restart")
	}
	st := reopened.Status()
	if len(st.Replicas) != 1 || !st.Replicas[0].Promoted {
		t.Fatalf("promotion lost across restart: %+v", st.Replicas)
	}
}
