package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// failoverSet extends testSet with a second, worse proxy path so a
// session has somewhere to fail over to: sender→p1→d carries 18 fps
// (satisfaction 0.6), sender→p2→d only 9 fps (satisfaction 0.3).
func failoverSet() *profile.Set {
	set := testSet()
	set.Network.Links = append(set.Network.Links,
		profile.Link{From: "sender", To: "p2", BandwidthKbps: 2400},
		profile.Link{From: "p2", To: "d", BandwidthKbps: 900},
	)
	set.Intermediaries = append(set.Intermediaries, profile.Intermediary{
		Host: "p2", CPUMips: 1000, MemoryMB: 256,
		Services: []*service.Service{
			service.FormatConverter("conv2", media.VideoMPEG1, media.VideoH263),
		},
	})
	return set
}

// sessionJSON mirrors the handler's status response for decoding.
type sessionJSON struct {
	ID             string             `json:"id"`
	Path           []string           `json:"path"`
	Satisfaction   float64            `json:"satisfaction"`
	Step           int                `json:"step"`
	Recompositions int                `json:"recompositions"`
	Changed        bool               `json:"changed"`
	Error          string             `json:"error"`
	DownHosts      []string           `json:"downHosts"`
	DownServices   []string           `json:"downServices"`
	Reserved       map[string]float64 `json:"reserved"`
	Failover       struct {
		Enabled  bool `json:"enabled"`
		Degraded bool `json:"degraded"`
	} `json:"failover"`
}

func createSession(t *testing.T, srv string, set *profile.Set) sessionJSON {
	t.Helper()
	resp, err := http.Post(srv+"/v1/sessions", "application/json", setBody(t, set))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var s sessionJSON
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, sessionJSON) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s sessionJSON
	_ = json.NewDecoder(resp.Body).Decode(&s)
	return resp, s
}

func TestSessionCreateAndGet(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	if s.ID == "" {
		t.Fatal("session must get an id")
	}
	if want := []string{"sender", "conv1", "receiver"}; fmt.Sprint(s.Path) != fmt.Sprint(want) {
		t.Errorf("path = %v, want %v", s.Path, want)
	}
	if !s.Failover.Enabled || s.Failover.Degraded {
		t.Errorf("failover = %+v, want enabled and healthy", s.Failover)
	}

	resp, err := http.Get(srv.URL + "/v1/sessions/" + s.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got sessionJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || fmt.Sprint(got.Path) != fmt.Sprint(s.Path) {
		t.Errorf("GET = %+v, want %+v", got, s)
	}

	listResp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Sessions []sessionJSON `json:"sessions"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != s.ID {
		t.Errorf("list = %+v", list.Sessions)
	}
}

func TestSessionFailoverRoundTrip(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	base := srv.URL + "/v1/sessions/" + s.ID

	// Kill the active chain's host: the fault's storm re-plans the
	// session's class onto the conv2 path, and the next reevaluation
	// reports the switch.
	resp, st := postJSON(t, base+"/fault", map[string]string{"kind": "hostcrash", "host": "p1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault status = %d", resp.StatusCode)
	}
	if fmt.Sprint(st.DownHosts) != "[p1]" {
		t.Errorf("downHosts = %v", st.DownHosts)
	}
	resp, st = postJSON(t, base+"/reevaluate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reevaluate status = %d", resp.StatusCode)
	}
	if !st.Changed {
		t.Fatal("host crash must trigger a chain switch")
	}
	if st.Path[1] != "conv2" {
		t.Errorf("path = %v, want failover to conv2", st.Path)
	}
	if st.Recompositions != 1 || st.Failover.Degraded {
		t.Errorf("recompositions = %d, failover = %+v; want one healthy recomposition", st.Recompositions, st.Failover)
	}

	// Recover the host: the session climbs back to the better chain.
	resp, _ = postJSON(t, base+"/fault", map[string]string{"kind": "hostrecover", "host": "p1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover status = %d", resp.StatusCode)
	}
	resp, st = postJSON(t, base+"/reevaluate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reevaluate status = %d", resp.StatusCode)
	}
	if !st.Changed || st.Path[1] != "conv1" {
		t.Errorf("path = %v (changed=%v), want return to conv1", st.Path, st.Changed)
	}
	if st.Satisfaction < 0.59 {
		t.Errorf("satisfaction = %v, want ~0.6 back", st.Satisfaction)
	}
	if st.Recompositions != 2 {
		t.Errorf("recompositions = %d, want 2 (failover and climb back)", st.Recompositions)
	}
}

func TestSessionServiceChurnOverAPI(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	base := srv.URL + "/v1/sessions/" + s.ID

	resp, _ := postJSON(t, base+"/fault", map[string]string{"kind": "servicedown", "service": "conv1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault status = %d", resp.StatusCode)
	}
	_, st := postJSON(t, base+"/reevaluate", nil)
	if !st.Changed || st.Path[1] != "conv2" {
		t.Errorf("path = %v, want conv2 after conv1 deregistered", st.Path)
	}
	postJSON(t, base+"/fault", map[string]string{"kind": "serviceup", "service": "conv1"})
	_, st = postJSON(t, base+"/reevaluate", nil)
	if !st.Changed || st.Path[1] != "conv1" {
		t.Errorf("path = %v, want conv1 after re-registration", st.Path)
	}
}

// TestServiceFaultReplansOtherClass: sessions created over the same
// infrastructure share one region, so a service deregistration posted
// on one session re-plans every class whose chain runs through it — here
// a second session of a different class (another floor).
func TestServiceFaultReplansOtherClass(t *testing.T) {
	srv := server(t)
	a := createSession(t, srv.URL, failoverSet())
	resp, err := http.Post(srv.URL+"/v1/sessions?floor=0.1", "application/json", setBody(t, failoverSet()))
	if err != nil {
		t.Fatal(err)
	}
	var b sessionJSON
	err = json.NewDecoder(resp.Body).Decode(&b)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: status %d, %v", resp.StatusCode, err)
	}
	if a.Path[1] != "conv1" || b.Path[1] != "conv1" {
		t.Fatalf("paths = %v / %v, want both on conv1", a.Path, b.Path)
	}

	resp, _ = postJSON(t, srv.URL+"/v1/sessions/"+a.ID+"/fault", map[string]string{"kind": "servicedown", "service": "conv1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault status = %d", resp.StatusCode)
	}
	_, st := getSession(t, srv.URL, b.ID)
	if st.Path[1] != "conv2" || st.Recompositions != 1 {
		t.Errorf("session b path = %v after %d recompositions, want one re-plan onto conv2", st.Path, st.Recompositions)
	}
	if fmt.Sprint(st.DownServices) != "[conv1]" {
		t.Errorf("session b downServices = %v, want [conv1]", st.DownServices)
	}
}

func TestSessionFaultValidation(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	base := srv.URL + "/v1/sessions/" + s.ID

	resp, _ := postJSON(t, base+"/fault", map[string]string{"kind": "meteor"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/fault", map[string]string{"kind": "hostcrash"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing host status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/sessions/nope/fault", map[string]string{"kind": "hostcrash", "host": "p1"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d, want 404", resp.StatusCode)
	}
}

func TestReevaluateReasonValidation(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	base := srv.URL + "/v1/sessions/" + s.ID

	resp, st := postJSON(t, base+"/reevaluate?reason=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reason=bogus status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(st.Error, "unknown reevaluate reason") {
		t.Errorf("reason=bogus error = %q, want mention of unknown reason", st.Error)
	}
	for _, reason := range []string{"", "manual", "fault", "storm"} {
		url := base + "/reevaluate"
		if reason != "" {
			url += "?reason=" + reason
		}
		resp, st := postJSON(t, url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("reason=%q status = %d (error %q), want 200", reason, resp.StatusCode, st.Error)
		}
	}
}

func TestSessionCreateRejectsBadInput(t *testing.T) {
	srv := server(t)
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/sessions?floor=2", "application/json", setBody(t, failoverSet()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad floor status = %d, want 400", resp.StatusCode)
	}
}

func TestSessionDelete(t *testing.T) {
	srv := server(t)
	s := createSession(t, srv.URL, failoverSet())
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+s.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/v1/sessions/" + s.ID)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete = %d, want 404", getResp.StatusCode)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("double delete = %d, want 404", resp2.StatusCode)
	}
}

// persistentServer serves the API over a durable session manager rooted
// at dir, returning the server and the manager (for Close).
func persistentServer(t *testing.T, dir string) (*httptest.Server, *session.Manager) {
	t.Helper()
	m, err := session.NewManager(session.ManagerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(HandlerWithOptions(Options{Sessions: m}))
	t.Cleanup(srv.Close)
	return srv, m
}

func getSession(t *testing.T, srv, id string) (int, sessionJSON) {
	t.Helper()
	resp, err := http.Get(srv + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s sessionJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, s
}

// TestSessionsSurviveRestart drives the full durability path over HTTP:
// sessions created and mutated against one server instance are rebuilt
// by the next instance over the same state directory, deletions
// included, and /healthz reports the recovery.
func TestSessionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, m1 := persistentServer(t, dir)

	created := createSession(t, srv1.URL, failoverSet())
	doomed := createSession(t, srv1.URL, testSet())
	resp, _ := postJSON(t, srv1.URL+"/v1/sessions/"+created.ID+"/fault",
		map[string]string{"kind": "hostcrash", "host": "p1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv1.URL+"/v1/sessions/"+created.ID+"/reevaluate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reevaluate status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv1.URL+"/v1/sessions/"+doomed.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v status=%v", err, resp.StatusCode)
	}
	_, want := getSession(t, srv1.URL, created.ID)
	srv1.Close()
	if err := m1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2, m2 := persistentServer(t, dir)
	defer m2.Close()
	status, got := getSession(t, srv2.URL, created.ID)
	if status != http.StatusOK {
		t.Fatalf("recovered session status = %d", status)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("recovered session diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if status, _ := getSession(t, srv2.URL, doomed.ID); status != http.StatusNotFound {
		t.Errorf("deleted session came back: status = %d", status)
	}

	// /healthz reports the recovery.
	hresp, err := http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Durable  bool `json:"durable"`
		Recovery struct {
			Sessions int `json:"sessions"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Durable || health.Recovery.Sessions != 1 {
		t.Errorf("healthz = %+v, want durable with 1 recovered session", health)
	}
}

// regionReserved sums the reserved kbps of every region overlay the
// manager's sessions share.
func regionReserved(m *session.Manager) float64 {
	ctrl := m.StormController()
	total := 0.0
	for _, name := range ctrl.Regions() {
		total += ctrl.RegionNet(name).TotalReservedKbps()
	}
	return total
}

// TestCreateWithoutReserveHoldsNothing: only reserve=1 takes bandwidth
// on the shared region overlay, live and after a restart replays the
// creates.
func TestCreateWithoutReserveHoldsNothing(t *testing.T) {
	dir := t.TempDir()
	srv1, m1 := persistentServer(t, dir)

	plain := createSession(t, srv1.URL, failoverSet())
	if len(plain.Path) == 0 || len(plain.Reserved) != 0 {
		t.Fatalf("non-reserving create = path %v, reserved %v; want a chain and no hold", plain.Path, plain.Reserved)
	}
	if r := regionReserved(m1); r != 0 {
		t.Fatalf("region reserves %v kbps after a non-reserving create, want 0", r)
	}
	resp, err := http.Post(srv1.URL+"/v1/sessions?reserve=1", "application/json", setBody(t, failoverSet()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("reserving create status = %d", resp.StatusCode)
	}
	held := regionReserved(m1)
	if held <= 0 {
		t.Fatal("reserve=1 create took no bandwidth")
	}
	srv1.Close()
	if err := m1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2, m2 := persistentServer(t, dir)
	defer m2.Close()
	if r := regionReserved(m2); r != held {
		t.Errorf("region reserves %v kbps after restart, want the reserving session's %v", r, held)
	}
	if _, st := getSession(t, srv2.URL, plain.ID); len(st.Reserved) != 0 {
		t.Errorf("replayed non-reserving session holds %v", st.Reserved)
	}
}
