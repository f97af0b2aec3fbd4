package cluster

import (
	"context"
	"strings"
	"testing"

	"qoschain/internal/session"
)

// TestStormAccessors pins the storm-state accessors the EXT-P harness
// leans on: every node fingerprints its embedded controller, a missing
// replica is reported by name, and a shipped replica's fingerprint
// matches the primary's byte-for-byte.
func TestStormAccessors(t *testing.T) {
	plain := startNode(t, "plain", "p9", nil, 0)
	if fp, err := plain.node.StormFingerprint(""); err != nil || fp == "" {
		t.Errorf("fresh node StormFingerprint() = %q, %v; want the empty controller's fingerprint", fp, err)
	}
	if _, err := plain.node.StormFingerprint("ghost"); err == nil ||
		!strings.Contains(err.Error(), "ghost") {
		t.Errorf("missing-replica err = %v, want mention of ghost", err)
	}
	if _, ok := plain.node.ReplicaManager("ghost"); ok {
		t.Error("ReplicaManager(ghost) = ok, want missing")
	}

	n1 := startNode(t, "s1", "p8", nil, 0)
	n2 := startNode(t, "s2", "p7", nil, 0)
	if _, err := n1.node.CreateCtx(context.Background(), session.CreateSpec{
		Set: *clusterSet(), Floor: 0.3,
	}); err != nil {
		t.Fatalf("storm create: %v", err)
	}
	fp, err := n1.node.StormFingerprint("")
	if err != nil || fp == "" {
		t.Fatalf("primary fingerprint = %q, %v", fp, err)
	}

	n1.node.Shipper().SetPeer(n2.member)
	if _, err := n1.node.Shipper().Ship(context.Background()); err != nil {
		t.Fatalf("ship: %v", err)
	}
	rfp, err := n2.node.StormFingerprint("s1")
	if err != nil {
		t.Fatalf("replica fingerprint: %v", err)
	}
	if rfp != fp {
		t.Errorf("replica fingerprint diverged:\nprimary %s\nreplica %s", fp, rfp)
	}
	if _, ok := n2.node.ReplicaManager("s1"); !ok {
		t.Error("ReplicaManager(s1) missing after a ship")
	}
}
