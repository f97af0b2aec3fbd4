package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qoschain/internal/session"
)

// stormServer is the adaptd wiring: the session backend is a manager
// and /healthz carries its embedded controller's status.
func stormServer(t *testing.T) *httptest.Server {
	t.Helper()
	m, err := session.NewManager(session.ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HandlerWithOptions(Options{
		Sessions: m,
		Storm:    m.StormController(),
	}))
	t.Cleanup(func() { srv.Close(); m.Close() })
	return srv
}

// TestStormAttachedSessionsOverHTTP drives the daemon's class-based
// session surface end to end: two identical creates share one equivalence
// class, /healthz reports it, and a fault + reevaluate round-trip
// stays storm-planned.
func TestStormAttachedSessionsOverHTTP(t *testing.T) {
	srv := stormServer(t)

	a := createSession(t, srv.URL, failoverSet())
	b := createSession(t, srv.URL, failoverSet())
	if a.ID == b.ID {
		t.Fatalf("duplicate session IDs %q", a.ID)
	}
	if len(a.Path) == 0 || len(b.Path) == 0 {
		t.Fatalf("storm-attached creates got no chain: %v / %v", a.Path, b.Path)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Storm *struct {
			Classes  int `json:"classes"`
			Sessions int `json:"sessions"`
		} `json:"storm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Storm == nil {
		t.Fatal("/healthz has no storm section with a storm-attached backend")
	}
	if health.Storm.Classes != 1 || health.Storm.Sessions != 2 {
		t.Errorf("storm status = %d classes / %d sessions, want 1 / 2 (identical creates share a class)",
			health.Storm.Classes, health.Storm.Sessions)
	}

	base := srv.URL + "/v1/sessions/" + a.ID
	if code, _ := postJSON(t, base+"/fault", map[string]string{"kind": "linkdown", "from": "p1", "to": "d"}); code.StatusCode != http.StatusOK {
		t.Fatalf("fault status = %d", code.StatusCode)
	}
	for _, id := range []string{a.ID, b.ID} {
		r, err := http.Get(srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st sessionJSON
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		for i := 0; i+1 < len(st.Path); i++ {
			if st.Path[i] == "p1" && st.Path[i+1] == "d" {
				t.Errorf("session %s still routes p1->d after the storm: %v", id, st.Path)
			}
		}
	}
	if code, st := postJSON(t, base+"/reevaluate?reason=manual", nil); code.StatusCode != http.StatusOK {
		t.Fatalf("reevaluate status = %d (%s)", code.StatusCode, st.Error)
	}
}
