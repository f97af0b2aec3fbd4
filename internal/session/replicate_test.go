package session

import (
	"testing"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
)

// shipOnce drains the primary's journal suffix into the replica,
// exactly as the cluster shipper does: match offsets, verify the chain,
// apply verbatim.
func shipOnce(t *testing.T, primary, replica *Manager) {
	t.Helper()
	for {
		b, err := primary.ReadShip(replica.LastSeq(), 0)
		if err != nil {
			t.Fatalf("ReadShip: %v", err)
		}
		if b.Snapshot != nil {
			t.Fatalf("unexpected snapshot fallback at offset %d", replica.LastSeq())
		}
		if len(b.Records) == 0 {
			return
		}
		if b.FromSeq != replica.LastSeq() || b.FromChain != replica.LastChain() {
			t.Fatalf("batch offset (%d) does not match replica (%d)", b.FromSeq, replica.LastSeq())
		}
		if err := journal.VerifyShip(b); err != nil {
			t.Fatalf("VerifyShip: %v", err)
		}
		if _, err := replica.ApplyReplicated(b.Records); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
	}
}

func TestReplicatedApplyIsByteIdentical(t *testing.T) {
	primary := newPersistent(t, t.TempDir(), ManagerConfig{IDPrefix: "n1-"})
	defer primary.Close()
	// The replica disables periodic snapshots: its journal must mirror
	// the primary's records verbatim, compaction is the primary's call.
	replica := newPersistent(t, t.TempDir(), ManagerConfig{IDPrefix: "n1-", SnapshotEvery: -1})
	defer replica.Close()

	ms, err := primary.Create(CreateSpec{Set: managerSet(), Floor: 0.3, Reserve: true})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if ms.ID() != "n1-s1" {
		t.Fatalf("prefixed id = %q, want n1-s1", ms.ID())
	}
	ms2, err := primary.Create(CreateSpec{Set: managerSet(), Reserve: true})
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	shipOnce(t, primary, replica)

	// Mutate: fault + failover on one session, tick the other, delete
	// nothing — then ship the increment.
	if err := ms.ApplyFault(fault.Fault{Kind: fault.HostCrash, Host: "p1"}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if _, _, logErr := ms.Reevaluate(); logErr != nil {
		t.Fatalf("reevaluate: %v", logErr)
	}
	if _, _, logErr := ms2.Reevaluate(); logErr != nil {
		t.Fatalf("reevaluate 2: %v", logErr)
	}
	shipOnce(t, primary, replica)

	if replica.LastSeq() != primary.LastSeq() || replica.LastChain() != primary.LastChain() {
		t.Fatalf("replica offset (%d) diverged from primary (%d)", replica.LastSeq(), primary.LastSeq())
	}
	want, got := fingerprints(t, primary), fingerprints(t, replica)
	if len(got) != len(want) {
		t.Fatalf("replica has %d sessions, want %d", len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			t.Errorf("session %s state diverged:\n got %s\nwant %s", id, got[id], fp)
		}
	}

	// Deletes replicate too.
	if _, err := primary.Delete(ms2.ID()); err != nil {
		t.Fatalf("delete: %v", err)
	}
	shipOnce(t, primary, replica)
	if _, ok := replica.Get(ms2.ID()); ok {
		t.Fatal("deleted session still live on replica")
	}
}

func TestReplicatedApplyRejectsDiscontinuity(t *testing.T) {
	primary := newPersistent(t, t.TempDir(), ManagerConfig{IDPrefix: "n1-"})
	defer primary.Close()
	replica := newPersistent(t, t.TempDir(), ManagerConfig{IDPrefix: "n1-", SnapshotEvery: -1})
	defer replica.Close()

	if _, err := primary.Create(CreateSpec{Set: managerSet()}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Create(CreateSpec{Set: managerSet()}); err != nil {
		t.Fatal(err)
	}
	b, err := primary.ReadShip(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Skipping the first record must be rejected atomically: no record
	// of the batch applies, the replica stays at offset 0.
	if _, err := replica.ApplyReplicated(b.Records[1:]); err == nil {
		t.Fatal("discontinuous batch applied")
	}
	if replica.LastSeq() != 0 || len(replica.List()) != 0 {
		t.Fatalf("rejected batch moved the replica to seq %d with %d sessions", replica.LastSeq(), len(replica.List()))
	}
	// The full batch from the true offset applies.
	if _, err := replica.ApplyReplicated(b.Records); err != nil {
		t.Fatalf("pristine batch: %v", err)
	}
	if replica.LastSeq() != primary.LastSeq() {
		t.Fatalf("replica at %d, want %d", replica.LastSeq(), primary.LastSeq())
	}
}

func TestReadShipFallsBackToSnapshot(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery 1 compacts after every command, so a fresh follower
	// can never catch up incrementally from offset 0.
	primary := newPersistent(t, dir, ManagerConfig{IDPrefix: "n1-", SnapshotEvery: 1})
	defer primary.Close()
	ms, err := primary.Create(CreateSpec{Set: managerSet(), Reserve: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, logErr := ms.Reevaluate(); logErr != nil {
		t.Fatal(logErr)
	}

	b, err := primary.ReadShip(0, 0)
	if err != nil {
		t.Fatalf("ReadShip after compaction: %v", err)
	}
	if b.Snapshot == nil {
		t.Fatal("expected snapshot fallback")
	}

	// Bootstrap a replica from the shipped snapshot; its recovery path
	// rebuilds the sessions, and incremental shipping resumes.
	rdir := t.TempDir()
	if err := journal.Bootstrap(rdir, b.Snapshot); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	replica := newPersistent(t, rdir, ManagerConfig{IDPrefix: "n1-", SnapshotEvery: -1})
	defer replica.Close()
	if replica.LastSeq() != b.Snapshot.Seq {
		t.Fatalf("bootstrapped replica at %d, want snapshot seq %d", replica.LastSeq(), b.Snapshot.Seq)
	}
	if _, err := replica.ApplyReplicated(b.Records); err != nil {
		t.Fatalf("apply post-snapshot records: %v", err)
	}
	want, got := fingerprints(t, primary), fingerprints(t, replica)
	for id, fp := range want {
		if got[id] != fp {
			t.Errorf("session %s diverged after snapshot bootstrap", id)
		}
	}
}
