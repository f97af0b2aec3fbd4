package httpapi

// sessions.go exposes live sessions over HTTP. A session is created
// from a profile.Set and joins the equivalence class of every session
// with the same profiles on the same infrastructure: sessions created
// over one network share its region overlay and service pool, so a
// fault injected through any of them re-plans every class it touches.
// Session lifecycle, fault application, and (when the server runs with
// a state directory) durability all live in session.Manager — this file
// is the HTTP veneer.
//
//	POST   /v1/sessions                  profile.Set JSON -> session created
//	GET    /v1/sessions                  list session statuses
//	GET    /v1/sessions/{id}             one session's chain + failover status
//	POST   /v1/sessions/{id}/fault       inject a fault against the session's region
//	POST   /v1/sessions/{id}/reevaluate  advance one step and re-plan the session's class
//	DELETE /v1/sessions/{id}             tear the session down (releases its holds)
//
// /v1/sessions query parameters: floor=<0..1> (minimum acceptable
// satisfaction before graceful degradation, default 0), contact=<class>,
// reserve=1 (hold the chain's bitrate on the region overlay's links; a
// hold that does not fit the free capacity leaves the session degraded,
// holding nothing, until a re-plan finds room). The virtual clock
// advances one step per reevaluate call.
//
// On a persistent manager every state-changing request is journaled
// before the response is written; a journal failure surfaces as 500 and
// the server should be restarted (recovery replays to the last fsynced
// record).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"qoschain/internal/fault"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// SessionManager adapts a SessionBackend (a session.Manager or a
// cluster node) to the HTTP routes.
type SessionManager struct {
	m SessionBackend
}

// NewSessionManagerWith wraps an existing backend.
func NewSessionManagerWith(m SessionBackend) *SessionManager {
	return &SessionManager{m: m}
}

// register wires the session routes into a mux.
func (sm *SessionManager) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", sm.handleCreate)
	mux.HandleFunc("GET /v1/sessions", sm.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", sm.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", sm.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/fault", sm.handleFault)
	mux.HandleFunc("POST /v1/sessions/{id}/reevaluate", sm.handleReevaluate)
}

// createError maps a session.Manager.Create failure to its HTTP status:
// malformed specs are the client's fault, anything else is an
// unprocessable (chain-less) profile.
func createError(w http.ResponseWriter, err error) {
	if errors.Is(err, session.ErrBadSpec) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeError(w, http.StatusUnprocessableEntity, err.Error())
}

func (sm *SessionManager) handleCreate(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	set, err := profile.DecodeSet(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeError(w, bodyErrorStatus(err), err.Error())
		return
	}
	q := r.URL.Query()
	floor := 0.0
	if v := q.Get("floor"); v != "" {
		floor, err = strconv.ParseFloat(v, 64)
		if err != nil || floor < 0 || floor > 1 {
			writeError(w, http.StatusBadRequest, "floor must be a number in [0,1]")
			return
		}
	}
	ms, err := sm.m.CreateCtx(r.Context(), session.CreateSpec{
		Set:     *set,
		Floor:   floor,
		Contact: q.Get("contact"),
		Reserve: q.Get("reserve") == "1",
	})
	if err != nil {
		if ms != nil {
			// The session exists in memory but its creation did not make
			// it to the journal — a durability loss, not a client error.
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		createError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, ms.State())
}

func (sm *SessionManager) handleList(w http.ResponseWriter, r *http.Request) {
	all := sm.m.List()
	out := make([]session.State, len(all))
	for i, ms := range all {
		out[i] = ms.State()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"sessions": out})
}

// lookup fetches a session by path id, writing the 404 itself when absent.
func (sm *SessionManager) lookup(w http.ResponseWriter, r *http.Request) *session.Managed {
	id := r.PathValue("id")
	ms, ok := sm.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return nil
	}
	return ms
}

func (sm *SessionManager) handleGet(w http.ResponseWriter, r *http.Request) {
	ms := sm.lookup(w, r)
	if ms == nil {
		return
	}
	writeJSON(w, http.StatusOK, ms.State())
}

func (sm *SessionManager) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := sm.m.Delete(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// faultRequest is the JSON body of a fault injection. Kind follows
// internal/fault: hostcrash, hostrecover, linkdown, linkup, bandwidth,
// loss, delay, servicedown, serviceup. Bandwidth collapse multiplies the
// link's current capacity by factor; injections are immediate and stay
// until the inverse fault is posted.
type faultRequest struct {
	Kind     string  `json:"kind"`
	Host     string  `json:"host,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
	Service  string  `json:"service,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	LossRate float64 `json:"lossRate,omitempty"`
	DelayMs  float64 `json:"delayMs,omitempty"`
}

func (sm *SessionManager) handleFault(w http.ResponseWriter, r *http.Request) {
	ms := sm.lookup(w, r)
	if ms == nil {
		return
	}
	defer r.Body.Close()
	var req faultRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), err.Error())
		return
	}
	f := fault.Fault{
		AtStep:   1, // immediate; validated shape only
		Kind:     fault.Kind(req.Kind),
		Host:     req.Host,
		From:     req.From,
		To:       req.To,
		Service:  service.ID(req.Service),
		Factor:   req.Factor,
		LossRate: req.LossRate,
		DelayMs:  req.DelayMs,
	}
	if err := f.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := ms.ApplyFaultCtx(r.Context(), f); err != nil {
		// The fault either failed to apply (client error) or applied but
		// failed to journal (durability loss).
		if errors.Is(err, session.ErrJournal) {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ms.State())
}

func (sm *SessionManager) handleReevaluate(w http.ResponseWriter, r *http.Request) {
	ms := sm.lookup(w, r)
	if ms == nil {
		return
	}
	// ?reason= attributes the re-evaluation in journal and metrics;
	// unadorned client calls are manual by definition.
	reason := r.URL.Query().Get("reason")
	switch reason {
	case "":
		reason = session.ReevalManual
	case session.ReevalManual, session.ReevalFault, session.ReevalStorm:
	default:
		writeError(w, http.StatusBadRequest, "unknown reevaluate reason "+reason)
		return
	}
	changed, evalErr, logErr := ms.ReevaluateReasonCtx(r.Context(), reason)
	if logErr != nil {
		writeError(w, http.StatusInternalServerError, logErr.Error())
		return
	}
	resp := struct {
		Changed bool   `json:"changed"`
		Error   string `json:"error,omitempty"`
		session.State
	}{Changed: changed, State: ms.State()}
	if evalErr != nil {
		resp.Error = evalErr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}
