package sim

// stormcluster.go is the storm-safe live-path harness (EXPERIMENTS.md
// EXT-P): the daemon-path unification of /v1/sessions with the storm
// controller, replicated across the cluster tier, with the primary
// killed between a fault's commit and its storm's.
//
// Two runs share one scaled Figure 6 deployment and one correlated
// backbone fault (a loss spike on the link every class chain crosses):
//
//   - the REFERENCE run drives a session manager in-process with
//     naive-equivalence verification on. It proves the daemon path
//     absorbs the fault in O(affected classes) Selects and that every
//     class chain matches the per-session Select byte-for-byte
//     (Mismatches == 0), then records the controller fingerprint.
//
//   - the KILL run drives the same creates over live HTTP against a
//     cluster primary whose journal is armed (journal.FPAppend) to die
//     on the storm record of the fault's batch. The WAL ships to a
//     follower, which ends up holding the fault and not its storm.
//     Promoting the follower runs Reconcile, whose storm re-plans the
//     fault's pending links from state. The promoted controller's
//     fingerprint must equal the reference run's byte-for-byte, with
//     zero leaked kbps on the shared region ledger.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"

	"qoschain/internal/cluster"
	"qoschain/internal/fault"
	"qoschain/internal/httpapi"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
	"qoschain/internal/registry"
	"qoschain/internal/session"
	"qoschain/internal/storm"
	"qoschain/internal/trace"
)

// StormClusterSpec configures one kill-before-the-storm failover
// scenario.
type StormClusterSpec struct {
	// StateRoot holds the two nodes' journal trees (a fresh temp dir
	// per scenario).
	StateRoot string
	// Seed labels the trial in the report; the scenario itself is
	// fixed by Classes and PerClass.
	Seed int64
	// Classes is how many equivalence classes the sessions split into,
	// via QoS-floor variation over the shared deployment (default 6).
	Classes int
	// PerClass is how many sessions attach to each class (default 4).
	PerClass int
	// SnapshotEvery compacts the primary journal this often (default 8,
	// small enough that the follower exercises the manager snapshot
	// bootstrap).
	SnapshotEvery int
	// Counters, when set, receives the storm.*/replication.* series.
	Counters *metrics.Counters
}

// StormClusterReport is the scenario outcome.
type StormClusterReport struct {
	Seed     int64 `json:"seed"`
	Classes  int   `json:"classes"`
	Sessions int   `json:"sessions"`
	// Reference-run numbers: the daemon path's storm cost and the
	// naive-equivalence audit.
	RefAffectedClasses  int `json:"refAffectedClasses"`
	RefAffectedSessions int `json:"refAffectedSessions"`
	RefSelectCalls      int `json:"refSelectCalls"`
	RefNaiveChecks      int `json:"refNaiveChecks"`
	RefMismatches       int `json:"refMismatches"`
	// Kill-run numbers.
	ShippedRecords int64 `json:"shippedRecords"`
	// Killed reports the primary's journal died on the fault's batch
	// (the fault request surfaced the crash).
	Killed bool `json:"killed"`
	// PendingLinks is how many changed links the follower held pending
	// at promotion: the committed fault, without its storm.
	PendingLinks int `json:"pendingLinks"`
	// ReplannedClasses is how many classes the promoted follower's
	// Reconcile storm re-planned.
	ReplannedClasses int `json:"replannedClasses"`
	// FingerprintsIdentical is the headline check: the promoted
	// follower's controller fingerprint equals the reference run's
	// byte-for-byte.
	FingerprintsIdentical bool `json:"fingerprintsIdentical"`
	// LeakKbps is reserved bandwidth no member accounts for on the
	// promoted follower (must be 0).
	LeakKbps float64 `json:"leakKbps"`
	// RecoveryMs is the promotion latency including the re-run storm.
	RecoveryMs float64 `json:"recoveryMs"`
	// Cluster-observability checks (the tentpole's acceptance gates).
	// TraceNodes is how many distinct nodes contributed spans to the
	// stitched WAL-ship trace fetched from /debug/traces/cluster.
	TraceNodes int `json:"traceNodes"`
	// TraceOrdered reports the stitched timeline came back in
	// non-decreasing offset order.
	TraceOrdered bool `json:"traceOrdered"`
	// FlightSingleID reports the re-run storm kept the killed storm's
	// ID: the dead primary's recorder and the promoted follower's
	// /debug/storms carry the same storm sequence, and the follower's
	// one flight under it is closed and wholly live (no storm record
	// reached the follower to replay).
	FlightSingleID bool `json:"flightSingleId"`
	// FederatedSeries counts series lines in the router's
	// /cluster/metrics merge (per-node and aggregated).
	FederatedSeries int `json:"federatedSeries"`
	// Err describes a contract violation; empty means the scenario
	// passed.
	Err string `json:"err,omitempty"`
}

// OK reports whether the scenario upheld the storm-safe live-path
// contract: the fault was absorbed class-at-a-time (Selects bounded by
// the class count, chains verified against the naive baseline), the
// primary died with the fault committed and its storm not, and the
// promoted follower re-planned to the reference state exactly, leaking
// nothing.
func (r *StormClusterReport) OK() bool {
	return r.Err == "" && r.Killed && r.PendingLinks > 0 && r.FingerprintsIdentical &&
		r.LeakKbps == 0 && r.RefMismatches == 0 &&
		r.RefSelectCalls <= r.Classes && r.ReplannedClasses > 0 &&
		r.TraceNodes >= 2 && r.TraceOrdered && r.FlightSingleID &&
		r.FederatedSeries > 0
}

// stormClusterSet is the shared deployment: Figure 6 with every link
// scaled to hold the whole session population, so the loss spike — not
// capacity starvation — is what drives the storm.
func stormClusterSet(sessions int) profile.Set {
	set := Figure6Set()
	scale := math.Ceil(float64(sessions) * 1.15)
	for i := range set.Network.Links {
		set.Network.Links[i].BandwidthKbps *= scale
	}
	return set
}

// stormFloors derives the class-splitting QoS floors.
func stormFloors(classes int) []float64 {
	floors := make([]float64, classes)
	for i := range floors {
		floors[i] = 0.30 + 0.05*float64(i%10)
	}
	return floors
}

// createStormSessions drives the creates through one round-trip
// function (in-process or HTTP), PerClass sessions per floor, in
// deterministic order.
func createStormSessions(spec StormClusterSpec, create func(floor float64) error) error {
	for _, floor := range stormFloors(spec.Classes) {
		for j := 0; j < spec.PerClass; j++ {
			if err := create(floor); err != nil {
				return err
			}
		}
	}
	return nil
}

// backboneLink resolves the link every class chain crosses: the hop
// from the sender to the first chain host. One loss spike there is the
// correlated backbone event.
func backboneLink(m *session.Manager, set *profile.Set) (from, to string, err error) {
	hostOf := map[string]string{}
	for _, in := range set.Intermediaries {
		for _, svc := range in.Services {
			hostOf[string(svc.ID)] = in.Host
		}
	}
	for _, ms := range m.List() {
		for _, hop := range ms.State().Path {
			if h, ok := hostOf[hop]; ok {
				return "sender", h, nil
			}
		}
	}
	return "", "", fmt.Errorf("sim: no session chain crosses an intermediary host")
}

// startStormNode opens one storm-attached cluster node and serves its
// API on a loopback socket, fully instrumented: a per-node metrics
// registry (scraped by the router's /cluster/metrics federation), a
// per-node tracer that adopts inbound X-Trace-Id headers (so one
// request's hops stitch cluster-wide), and the node-level /debug/storms
// flight recorder. The node's counters fan out to both the caller's
// shared sink and the node's own registry.
func startStormNode(id, dir string, fp *journal.FailPoints, snapshotEvery int, counters *metrics.Counters) (*clusterNode, error) {
	reg := metrics.NewRegistry()
	metrics.RegisterWellKnown(reg)
	tracer := trace.NewTracer(256)
	n, err := cluster.NewNode(cluster.NodeConfig{
		ID: id, StateDir: dir, Host: "node-" + id,
		SnapshotEvery: snapshotEvery,
		Counters:      metrics.Fanout(counters, metrics.CountersOn(reg)),
		FailPoints:    fp,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.Close() //nolint:errcheck
		return nil, err
	}
	api := httpapi.HandlerWithOptions(httpapi.Options{
		Sessions: n,
		Metrics:  reg,
		Storm:    n.Manager().StormController(),
	})
	h := httpapi.WithObservability(n.Handler(api), httpapi.ObsConfig{
		Registry: reg,
		Tracer:   tracer,
	})
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return &clusterNode{
		node: n, srv: srv, ln: ln,
		member: registry.Member{ID: id, Addr: ln.Addr().String(), Host: "node-" + id},
		reg:    reg, tracer: tracer,
	}, nil
}

// getJSON fetches a URL and decodes its JSON body into v, failing on
// any non-200 status.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// RunStormCluster executes one kill-before-the-storm failover scenario
// end to end.
func RunStormCluster(spec StormClusterSpec) (*StormClusterReport, error) {
	if spec.Classes <= 0 {
		spec.Classes = 6
	}
	if spec.PerClass <= 0 {
		spec.PerClass = 4
	}
	if spec.SnapshotEvery == 0 {
		spec.SnapshotEvery = 8
	}
	if spec.Counters == nil {
		spec.Counters = metrics.NewCounters()
	}
	rep := &StormClusterReport{Seed: spec.Seed, Classes: spec.Classes,
		Sessions: spec.Classes * spec.PerClass}
	ctx := context.Background()
	set := stormClusterSet(rep.Sessions)

	// ---- Reference run: in-process, verified, never killed. ----------
	refCounters := metrics.NewCounters()
	// The ID prefix matches the primary's so member IDs — part of the
	// controller fingerprint — agree between the runs.
	ref, err := session.NewManager(session.ManagerConfig{
		StormVerify: true, IDPrefix: "n1-", Counters: refCounters,
	})
	if err != nil {
		return rep, fmt.Errorf("sim: reference manager: %w", err)
	}
	err = createStormSessions(spec, func(floor float64) error {
		_, err := ref.Create(session.CreateSpec{Set: set, Floor: floor, Reserve: true})
		return err
	})
	if err != nil {
		return rep, fmt.Errorf("sim: reference create: %w", err)
	}
	from, to, err := backboneLink(ref, &set)
	if err != nil {
		return rep, err
	}
	const lossRate = 0.05
	refSelectBase := refCounters.Get(metrics.CounterStormSelectCalls)
	refSession := ref.List()[0]
	if err := refSession.ApplyFault(fault.Fault{
		Kind: fault.LossSpike, From: from, To: to, LossRate: lossRate,
	}); err != nil {
		return rep, fmt.Errorf("sim: reference fault: %w", err)
	}
	rep.RefSelectCalls = int(refCounters.Get(metrics.CounterStormSelectCalls) - refSelectBase)
	refStorm := ref.StormController().Status().LastStorm
	if refStorm == nil {
		rep.Err = "reference fault triggered no storm"
		return rep, nil
	}
	rep.RefAffectedClasses = refStorm.AffectedClasses
	rep.RefAffectedSessions = refStorm.AffectedSessions
	rep.RefNaiveChecks = refStorm.NaiveChecks
	rep.RefMismatches = refStorm.Mismatches
	if rep.RefAffectedClasses == 0 {
		rep.Err = "reference fault affected no class"
		return rep, nil
	}
	refFP, err := ref.StormController().Fingerprint()
	if err != nil {
		return rep, fmt.Errorf("sim: reference fingerprint: %w", err)
	}

	// ---- Kill run: live HTTP, kill-armed primary, one follower. ------
	fp := journal.NewFailPoints()
	n1, err := startStormNode("n1", spec.StateRoot+"/n1", fp,
		spec.SnapshotEvery, spec.Counters)
	if err != nil {
		return rep, fmt.Errorf("sim: starting n1: %w", err)
	}
	defer n1.close()
	n2, err := startStormNode("n2", spec.StateRoot+"/n2", nil, spec.SnapshotEvery, spec.Counters)
	if err != nil {
		return rep, fmt.Errorf("sim: starting n2: %w", err)
	}
	defer n2.close()
	n1.node.Shipper().SetPeer(n2.member)

	var setBuf bytes.Buffer
	if err := set.Encode(&setBuf); err != nil {
		return rep, err
	}
	base := "http://" + n1.ln.Addr().String()
	shippedBase := spec.Counters.Get(metrics.CounterReplicationShippedRecords)
	var firstID string
	err = createStormSessions(spec, func(floor float64) error {
		url := fmt.Sprintf("%s/v1/sessions?reserve=1&floor=%g", base, floor)
		resp, err := http.Post(url, "application/json", bytes.NewReader(setBuf.Bytes()))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("%s: %s", resp.Status, body)
		}
		if firstID == "" {
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				return err
			}
			firstID = st.ID
		}
		_, err = n1.node.Shipper().Ship(ctx)
		return err
	})
	if err != nil {
		return rep, fmt.Errorf("sim: kill-run create: %w", err)
	}

	// ---- Cluster observability, while both nodes live. ---------------
	// A routing tier over the pair: it proxies session reads, stitches
	// distributed traces (/debug/traces/cluster) and federates the
	// members' registries (/cluster/metrics).
	routerReg := metrics.NewRegistry()
	metrics.RegisterWellKnown(routerReg)
	router := cluster.NewRouter(cluster.RouterConfig{
		Planner:  cluster.LocalPlanner{},
		Counters: metrics.CountersOn(routerReg),
		Metrics:  routerReg,
		Tracer:   trace.NewTracer(64),
	})
	router.UpdateMembers(ctx, []registry.Member{n1.member, n2.member})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	rsrv := &http.Server{Handler: router}
	go rsrv.Serve(rln) //nolint:errcheck
	defer rsrv.Close() //nolint:errcheck
	rbase := "http://" + rln.Addr().String()

	// One traced WAL ship: the shipper injects the trace ID on the wire
	// and the follower's middleware adopts it, so the same ID is
	// retained on both nodes.
	shipTr := n1.tracer.Start("replication.ship")
	if _, err := n1.node.Shipper().Ship(trace.NewContext(ctx, shipTr)); err != nil {
		return rep, fmt.Errorf("sim: traced ship: %w", err)
	}
	shipTr.Finish()

	// A proxied read through the router under the same trace ID — the
	// proxy must forward the caller's trace headers to the owner.
	getReq, _ := http.NewRequestWithContext(ctx, http.MethodGet, rbase+"/v1/sessions/"+firstID, nil)
	getReq.Header.Set(trace.HeaderTraceID, shipTr.ID())
	getResp, err := http.DefaultClient.Do(getReq)
	if err != nil {
		return rep, fmt.Errorf("sim: proxied read: %w", err)
	}
	io.Copy(io.Discard, getResp.Body) //nolint:errcheck
	getResp.Body.Close()              //nolint:errcheck
	if getResp.StatusCode != http.StatusOK {
		rep.Err = fmt.Sprintf("router proxy lost session %s: %s", firstID, getResp.Status)
		return rep, nil
	}

	// Stitch: the trace must span both nodes in timeline order.
	var stitched cluster.ClusterTrace
	if err := getJSON(rbase+"/debug/traces/cluster?id="+shipTr.ID(), &stitched); err != nil {
		return rep, fmt.Errorf("sim: cluster trace: %w", err)
	}
	rep.TraceNodes = len(stitched.Nodes)
	rep.TraceOrdered = len(stitched.Spans) > 0
	for i := 1; i < len(stitched.Spans); i++ {
		if stitched.Spans[i].OffsetMs < stitched.Spans[i-1].OffsetMs {
			rep.TraceOrdered = false
		}
	}
	if rep.TraceNodes < 2 || !rep.TraceOrdered {
		rep.Err = fmt.Sprintf("stitched trace %s spans %d nodes (ordered %v); want >=2 nodes in order",
			shipTr.ID(), rep.TraceNodes, rep.TraceOrdered)
		return rep, nil
	}

	// Federation: every member's registry merged under a node label,
	// plus the storm./qos. aggregates.
	fedResp, err := http.Get(rbase + "/cluster/metrics")
	if err != nil {
		return rep, fmt.Errorf("sim: cluster metrics: %w", err)
	}
	fedBody, _ := io.ReadAll(fedResp.Body)
	fedResp.Body.Close() //nolint:errcheck
	for _, line := range strings.Split(string(fedBody), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			rep.FederatedSeries++
		}
	}
	fed := string(fedBody)
	if !strings.Contains(fed, `node="n1"`) || !strings.Contains(fed, `node="n2"`) {
		rep.Err = "federated exposition is missing a member's node label"
		return rep, nil
	}

	// The backbone event, through the live fault endpoint of ONE
	// session. The primary runs the storm, then appends the fault and
	// the storm's record in one batch; the journal dies on the second
	// record, so the fault reaches the file and its storm does not. The
	// request surfaces the crash as an error.
	fp.Arm(journal.FPAppend, fp.Hits(journal.FPAppend)+2)
	faultBody, _ := json.Marshal(map[string]any{
		"kind": "loss", "from": from, "to": to, "lossRate": lossRate,
	})
	resp, err := http.Post(base+"/v1/sessions/"+firstID+"/fault",
		"application/json", bytes.NewReader(faultBody))
	if err != nil {
		return rep, fmt.Errorf("sim: kill-run fault: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	rep.Killed = resp.StatusCode != http.StatusOK && strings.Contains(string(body), "crashed at failpoint")
	if !rep.Killed {
		rep.Err = fmt.Sprintf("primary journal did not die on the storm record: %s: %s", resp.Status, body)
		return rep, nil
	}

	// The dying primary's last ship carries the fault command and no
	// storm record.
	if _, err := n1.node.Shipper().Ship(ctx); err != nil {
		return rep, fmt.Errorf("sim: final ship: %w", err)
	}
	rep.ShippedRecords = spec.Counters.Get(metrics.CounterReplicationShippedRecords) - shippedBase
	n1.srv.Close() //nolint:errcheck

	// The follower holds the fault — its links pending — and not the
	// storm: no storm record ever reached it.
	rm, ok := n2.node.ReplicaManager("n1")
	if !ok {
		return rep, fmt.Errorf("sim: n2 holds no replica of n1")
	}
	rctrl := rm.StormController()
	held := rctrl.Status()
	rep.PendingLinks = held.PendingLinks
	if held.PendingLinks == 0 || held.Storms != 0 {
		rep.Err = fmt.Sprintf("follower holds %d pending links and %d storms; want the fault without its storm",
			held.PendingLinks, held.Storms)
		return rep, nil
	}

	// Promote: the follower adopts the replica, and its Reconcile storm
	// re-plans the fault's pending links. No host fault is injected —
	// the dead node is not part of the content overlay.
	promo, err := n2.node.Promote("n1", "")
	if err != nil {
		return rep, fmt.Errorf("sim: promote: %w", err)
	}
	rep.RecoveryMs = promo.TookMs
	last := rctrl.Status().LastStorm
	if last == nil {
		rep.Err = "promoted follower ran no storm"
		return rep, nil
	}
	rep.ReplannedClasses = last.AffectedClasses

	// Flight recorder: the killed storm's ID survives. The dead
	// primary's in-process recorder holds the storm it ran but never
	// committed; the promoted follower's /debug/storms must show exactly
	// one flight under the same storm sequence — closed, and wholly live
	// (re-run by Reconcile, nothing replayed).
	killSeq := -1
	if fs := n1.node.Manager().StormController().Flights(); len(fs) > 0 {
		killSeq = fs[0].Storm
	}
	var storms struct {
		Storms []storm.Flight `json:"storms"`
	}
	if err := getJSON("http://"+n2.ln.Addr().String()+"/debug/storms", &storms); err != nil {
		return rep, fmt.Errorf("sim: follower /debug/storms: %w", err)
	}
	matches := 0
	for _, f := range storms.Storms {
		if f.Source != "promoted:n1" || f.Storm != killSeq {
			continue
		}
		matches++
		replayed, live := false, false
		for _, ev := range f.Events {
			if ev.Replayed {
				replayed = true
			} else {
				live = true
			}
		}
		closed := len(f.Events) > 0 && f.Events[len(f.Events)-1].Kind == "end"
		rep.FlightSingleID = closed && !replayed && live
	}
	if matches != 1 || !rep.FlightSingleID {
		rep.FlightSingleID = false
		rep.Err = fmt.Sprintf("flight recorder did not keep the killed storm's ID (storm %d, %d matching flights)",
			killSeq, matches)
		return rep, nil
	}

	// The promoted controller must land on the reference state exactly.
	gotFP, err := n2.node.StormFingerprint("n1")
	if err != nil {
		return rep, fmt.Errorf("sim: promoted fingerprint: %w", err)
	}
	rep.FingerprintsIdentical = gotFP == refFP
	if !rep.FingerprintsIdentical {
		rep.Err = fmt.Sprintf("promoted storm state diverged from the reference run\n got %s\nwant %s", gotFP, refFP)
		return rep, nil
	}

	// Zero-leak audit on the promoted follower's shared region ledger.
	for _, name := range rctrl.Regions() {
		held := rctrl.HeldKbps(name)
		reserved := rctrl.RegionNet(name).TotalReservedKbps()
		if d := reserved - held; math.Abs(d) > 1e-6*math.Max(1, math.Max(held, reserved)) {
			rep.LeakKbps += d
		}
	}
	if rep.LeakKbps != 0 {
		rep.Err = fmt.Sprintf("promoted follower leaked %.3f kbps", rep.LeakKbps)
	}
	return rep, nil
}
