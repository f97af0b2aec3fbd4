package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qoschain/internal/storm"
)

// healthzDoc is the decoded /healthz body the replication tests assert
// against.
type healthzDoc struct {
	Status      string             `json:"status"`
	Durable     bool               `json:"durable"`
	Replication *ReplicationStatus `json:"replication"`
	Storm       *storm.Status      `json:"storm"`
}

func getHealthz(t *testing.T, base string) healthzDoc {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestHealthzReplicationStatus: /healthz must report the replication
// role and applied journal offset, not just liveness, so a load
// balancer can distinguish a durable solo node from an in-memory one
// (and, in a cluster, a primary from its lagging follower).
func TestHealthzReplicationStatus(t *testing.T) {
	// In-memory backend: role "memory", nothing durable to report.
	mem := httptest.NewServer(Handler())
	defer mem.Close()
	doc := getHealthz(t, mem.URL)
	if doc.Replication == nil || doc.Replication.Role != "memory" {
		t.Fatalf("in-memory replication = %+v", doc.Replication)
	}

	// Durable solo backend: role "solo" with the live journal offset.
	srv, m := persistentServer(t, t.TempDir())
	defer m.Close()
	createSession(t, srv.URL, testSet())
	doc = getHealthz(t, srv.URL)
	if doc.Replication == nil || doc.Replication.Role != "solo" {
		t.Fatalf("solo replication = %+v", doc.Replication)
	}
	if !doc.Durable {
		t.Fatal("durable flag lost")
	}
	if got, want := doc.Replication.AppliedSeq, m.LastSeq(); got != want || want == 0 {
		t.Fatalf("appliedSeq = %d, want live offset %d (nonzero)", got, want)
	}
}

// TestHealthzStormStatus: when a storm controller is wired in, /healthz
// carries its live view — class and session counts, pending links and
// the in-progress flag — so operators can gate traffic on recovery
// state.
func TestHealthzStormStatus(t *testing.T) {
	// Without a controller the section is absent.
	bare := httptest.NewServer(Handler())
	defer bare.Close()
	if doc := getHealthz(t, bare.URL); doc.Storm != nil {
		t.Fatalf("storm section present without a controller: %+v", doc.Storm)
	}

	ctrl, err := storm.Open(storm.Config{}, nil)
	if err != nil {
		t.Fatalf("storm.Open: %v", err)
	}
	srv := httptest.NewServer(HandlerWithOptions(Options{Storm: ctrl}))
	defer srv.Close()
	doc := getHealthz(t, srv.URL)
	if doc.Storm == nil {
		t.Fatal("healthz missing the storm section")
	}
	if doc.Storm.Classes != 0 || doc.Storm.Storms != 0 {
		t.Fatalf("fresh controller status = %+v", doc.Storm)
	}
}
