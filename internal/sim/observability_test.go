package sim

import (
	"encoding/json"
	"testing"
)

// TestStormClusterObservability pins the cluster-observability contract
// across a primary kill between a fault's commit and its storm's: the
// WAL-ship trace stitches into one ordered timeline spanning both
// nodes, the follower's flight recorder re-runs the lost storm under
// the killed storm's ID (one closed, live flight), and the router's
// /cluster/metrics federates both members' registries.
func TestStormClusterObservability(t *testing.T) {
	rep, err := RunStormCluster(StormClusterSpec{
		StateRoot: t.TempDir(),
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("RunStormCluster: %v", err)
	}
	if !rep.OK() {
		data, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("storm-cluster contract violated:\n%s", data)
	}
	if rep.TraceNodes < 2 {
		t.Errorf("stitched ship trace spans %d nodes, want >= 2", rep.TraceNodes)
	}
	if !rep.TraceOrdered {
		t.Error("stitched trace timeline is not in non-decreasing offset order")
	}
	if !rep.FlightSingleID {
		t.Error("re-run storm did not keep the killed storm's ID")
	}
	if rep.FederatedSeries == 0 {
		t.Error("/cluster/metrics federated no series")
	}
}
