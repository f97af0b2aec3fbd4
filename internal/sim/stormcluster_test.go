package sim

import (
	"encoding/json"
	"testing"
)

// TestRunStormCluster pins EXPERIMENTS.md EXT-P: a correlated backbone
// fault over live /v1/sessions is absorbed class-at-a-time with
// naive-equivalent chains, and a primary killed between the fault's
// commit and its storm's yields a follower holding the fault without
// the storm, whose promotion re-plans to the byte-identical fingerprint
// with zero leaked kbps.
func TestRunStormCluster(t *testing.T) {
	rep, err := RunStormCluster(StormClusterSpec{
		StateRoot: t.TempDir(),
		Seed:      42,
	})
	if err != nil {
		t.Fatalf("RunStormCluster: %v", err)
	}
	if !rep.OK() {
		data, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("storm-cluster contract violated:\n%s", data)
	}
	if rep.RefSelectCalls > rep.Classes {
		t.Errorf("reference run used %d Selects for %d classes", rep.RefSelectCalls, rep.Classes)
	}
	if rep.RefNaiveChecks == 0 {
		t.Error("reference run verified nothing — naive equivalence not exercised")
	}
	if rep.ReplannedClasses != rep.RefAffectedClasses {
		t.Errorf("promoted follower re-planned %d classes, want the reference storm's %d",
			rep.ReplannedClasses, rep.RefAffectedClasses)
	}
	if rep.ShippedRecords == 0 {
		t.Error("nothing replicated before the kill")
	}
}
