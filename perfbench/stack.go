package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"qoschain/internal/httpapi"
	"qoschain/internal/metrics"
	"qoschain/internal/session"
	"qoschain/internal/trace"
)

// timedBackend is the session backend the traced run hands the API: it
// times each backend call so the HTTP layer's self time is the client
// round trip minus the backend call. Each field holds the nanoseconds
// of the last call of its kind; the single client reads and clears it
// after every response.
type timedBackend struct {
	httpapi.SessionBackend
	createNs, getNs, deleteNs atomic.Int64
}

func (b *timedBackend) CreateCtx(ctx context.Context, spec session.CreateSpec) (*session.Managed, error) {
	start := time.Now()
	ms, err := b.SessionBackend.CreateCtx(ctx, spec)
	b.createNs.Store(int64(time.Since(start)))
	return ms, err
}

func (b *timedBackend) Get(id string) (*session.Managed, bool) {
	start := time.Now()
	ms, ok := b.SessionBackend.Get(id)
	b.getNs.Store(int64(time.Since(start)))
	return ms, ok
}

func (b *timedBackend) Delete(id string) (bool, error) {
	start := time.Now()
	ok, err := b.SessionBackend.Delete(id)
	b.deleteNs.Store(int64(time.Since(start)))
	return ok, err
}

func takeMs(v *atomic.Int64) float64 { return float64(v.Swap(0)) / 1e6 }

// daemon is the handler stack adaptd assembles with -storm-attach
// -state-dir, served over loopback HTTP: HandlerWithOptions, then
// WithAdmission with default settings, then WithObservability with a
// registry and tracer.
type daemon struct {
	dir     string
	reg     *metrics.Registry
	tracer  *trace.Tracer
	mgr     *session.Manager
	backend *timedBackend // nil unless traced
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func managerConfig(dir string, reg *metrics.Registry) session.ManagerConfig {
	return session.ManagerConfig{StateDir: dir, Counters: metrics.CountersOn(reg), Storm: true}
}

func startDaemon(dir string, traced bool) (*daemon, error) {
	d := &daemon{dir: dir, reg: metrics.NewRegistry(), tracer: trace.NewTracer(trace.DefaultKeep)}
	metrics.RegisterWellKnown(d.reg)
	mgr, err := session.NewManager(managerConfig(dir, d.reg))
	if err != nil {
		return nil, fmt.Errorf("opening session manager: %w", err)
	}
	mgr.Reconcile()
	d.mgr = mgr
	opts := httpapi.Options{Metrics: d.reg, Sessions: mgr, Storm: mgr.StormController()}
	if traced {
		d.backend = &timedBackend{SessionBackend: mgr}
		opts.Sessions = d.backend
	}
	handler := httpapi.HandlerWithOptions(opts)
	handler = httpapi.WithAdmission(handler, httpapi.AdmissionConfig{Metrics: metrics.CountersOn(d.reg)})
	handler = httpapi.WithObservability(handler, httpapi.ObsConfig{Registry: d.reg, Tracer: d.tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Timeout: 60 * time.Second}
	return d, nil
}

// stopServer shuts the HTTP server down and waits for it; the manager
// stays open.
func (d *daemon) stopServer() error {
	if d.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.srv = nil
	return err
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	trace  string
	ms     float64
}

// do issues one request and reads the whole reply; ms is the client
// round trip.
func (d *daemon) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, trace: resp.Header.Get("X-Trace-Id"), ms: ms}, nil
}

// snapshots is how many compacting snapshots the journal has written.
func (d *daemon) snapshots() int64 { return d.reg.CounterValue(metrics.CounterJournalSnapshots) }

// call is do for a request that must answer with status want.
func (d *daemon) call(method, path string, body []byte, want int) (reply, error) {
	rep, err := d.do(method, path, body)
	if err == nil && rep.status != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, rep.status, strings.TrimSpace(string(rep.body)))
	}
	return rep, err
}

// sessionState decodes the session status JSON the API returns.
type sessionState struct {
	ID             string   `json:"id"`
	Path           []string `json:"path"`
	Satisfaction   float64  `json:"satisfaction"`
	Recompositions int      `json:"recompositions"`
}

func decodeState(body []byte) (sessionState, error) {
	var st sessionState
	err := json.Unmarshal(body, &st)
	return st, err
}

// spanMs returns the duration of the first span with the given name in
// the request's trace. The observability layer finishes the trace just
// after the handler returns, so a reply can arrive first; poll briefly.
func (d *daemon) spanMs(id, name string) (float64, bool) {
	for i := 0; i < 200; i++ {
		if snap, ok := d.tracer.Get(id); ok {
			for _, sp := range snap.Spans {
				if sp.Name == name {
					return sp.DurationMs, true
				}
			}
			return 0, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return 0, false
}

// durableState is what must survive a restart byte for byte: the
// controller fingerprint and every session's State.
type durableState struct {
	fingerprint string
	sessions    map[string]string
}

func captureState(m *session.Manager) (durableState, error) {
	fp, err := m.StormController().Fingerprint()
	if err != nil {
		return durableState{}, err
	}
	st := durableState{fingerprint: fp, sessions: map[string]string{}}
	for _, ms := range m.List() {
		s, err := ms.Fingerprint()
		if err != nil {
			return durableState{}, err
		}
		st.sessions[ms.ID()] = s
	}
	return st, nil
}

func (a durableState) diff(b durableState) error {
	if a.fingerprint != b.fingerprint {
		return fmt.Errorf("controller fingerprint differs after reopening")
	}
	if len(a.sessions) != len(b.sessions) {
		return fmt.Errorf("%d sessions before close, %d after reopening", len(a.sessions), len(b.sessions))
	}
	for id, s := range a.sessions {
		if b.sessions[id] != s {
			return fmt.Errorf("session %s state differs after reopening", id)
		}
	}
	return nil
}

// leakCheck verifies that every region's overlay reserves exactly what
// the controller's members hold.
func leakCheck(m *session.Manager) error {
	ctrl := m.StormController()
	for _, name := range ctrl.Regions() {
		held := ctrl.HeldKbps(name)
		reserved := ctrl.RegionNet(name).TotalReservedKbps()
		if math.Abs(reserved-held) > 1e-6*math.Max(1, math.Max(held, reserved)) {
			return fmt.Errorf("region %s reserves %.3f kbps but members hold %.3f", name, reserved, held)
		}
	}
	return nil
}

// restart closes the daemon (server, then manager — the close
// snapshots), then reopens the state directory n times, timing
// NewManager plus Reconcile: the daemon's restart time, the fastest of
// the n. Each reopened state is checked against the state captured
// before the first close.
func (d *daemon) restart(n int) (float64, error) {
	if err := d.stopServer(); err != nil {
		return 0, err
	}
	before, err := captureState(d.mgr)
	if err != nil {
		return 0, err
	}
	if err := d.mgr.Close(); err != nil {
		return 0, fmt.Errorf("closing manager: %w", err)
	}
	d.mgr = nil
	fastest := math.Inf(1)
	for i := 0; i < n; i++ {
		took, err := reopen(d.dir, before)
		if err != nil {
			return 0, err
		}
		fastest = math.Min(fastest, took)
	}
	return fastest, nil
}

// reopen times one NewManager plus Reconcile on dir, checks the result
// against want, and closes it again.
func reopen(dir string, want durableState) (float64, error) {
	start := time.Now()
	m, err := session.NewManager(managerConfig(dir, metrics.NewRegistry()))
	if err != nil {
		return 0, fmt.Errorf("reopening state: %w", err)
	}
	m.Reconcile()
	took := time.Since(start).Seconds()
	err = checkReopened(m, want)
	if cerr := m.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing reopened manager: %w", cerr)
	}
	return took, err
}

func checkReopened(m *session.Manager, want durableState) error {
	if rec := m.Recovery(); len(rec.ReplayErrors) > 0 {
		return fmt.Errorf("replay errors after reopening: %v", rec.ReplayErrors[0])
	}
	got, err := captureState(m)
	if err != nil {
		return err
	}
	if err := want.diff(got); err != nil {
		return err
	}
	return leakCheck(m)
}

// close releases whatever the daemon still holds.
func (d *daemon) close() {
	d.stopServer()
	if d.mgr != nil {
		d.mgr.Close()
		d.mgr = nil
	}
}

// newestSnapshotBytes is the size of the newest snap-*.snap file.
func newestSnapshotBytes(dir string) float64 {
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(files) == 0 {
		return 0
	}
	sort.Strings(files)
	fi, err := os.Stat(files[len(files)-1])
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
