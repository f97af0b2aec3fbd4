package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/trace"
)

// obsServer builds the production handler stack — API inside
// WithObservability — with a buffer access log, and returns the pieces
// the tests inspect.
func obsServer(t *testing.T) (*httptest.Server, *metrics.Registry, *trace.Tracer, *bytes.Buffer, *sync.Mutex) {
	t.Helper()
	reg := metrics.NewRegistry()
	metrics.RegisterWellKnown(reg)
	tracer := trace.NewTracer(16)
	var buf bytes.Buffer
	var mu sync.Mutex
	log := &lockedWriter{w: &buf, mu: &mu}
	api := HandlerWithOptions(Options{Metrics: reg})
	h := WithObservability(api, ObsConfig{Registry: reg, Tracer: tracer, AccessLog: log})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, reg, tracer, &buf, &mu
}

// lockedWriter lets the test read the access log without racing the
// middleware's writes.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

func TestObservabilityZeroConfigIsPassthrough(t *testing.T) {
	h := http.NewServeMux()
	if got := WithObservability(h, ObsConfig{}); got != http.Handler(h) {
		t.Error("zero config must return the handler unchanged")
	}
}

// TestEveryOutcomeSetsTraceIDAndLogsOnce drives each handler outcome —
// success, client errors, no-chain, method-not-allowed — and asserts
// every response carries X-Trace-Id and appends exactly one access-log
// line mentioning that trace and status.
func TestEveryOutcomeSetsTraceIDAndLogsOnce(t *testing.T) {
	srv, _, _, buf, mu := obsServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"healthz", func() (*http.Response, error) {
			return http.Get(srv.URL + "/healthz")
		}, 200},
		{"compose ok", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/compose", "application/json", setBody(t, testSet()))
		}, 200},
		{"compose bad json", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/compose", "application/json", strings.NewReader("{nope"))
		}, 400},
		{"compose no chain", func() (*http.Response, error) {
			set := testSet()
			set.Device.Software.Decoders = []media.Format{media.AudioMP3}
			return http.Post(srv.URL+"/v1/compose", "application/json", setBody(t, set))
		}, 422},
		{"method not allowed", func() (*http.Response, error) {
			return http.Get(srv.URL + "/v1/compose")
		}, 405},
		{"not found", func() (*http.Response, error) {
			return http.Get(srv.URL + "/nope")
		}, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mu.Lock()
			before := bytes.Count(buf.Bytes(), []byte("\n"))
			mu.Unlock()
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			id := resp.Header.Get("X-Trace-Id")
			if id == "" {
				t.Fatal("X-Trace-Id missing")
			}
			mu.Lock()
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			mu.Unlock()
			if got := len(lines) - before; got != 1 {
				t.Fatalf("access log grew by %d lines, want exactly 1", got)
			}
			last := lines[len(lines)-1]
			if !strings.Contains(last, "trace="+id) {
				t.Errorf("log line %q does not carry trace=%s", last, id)
			}
			if !strings.Contains(last, fmt.Sprintf("status=%d", tc.status)) {
				t.Errorf("log line %q does not carry status=%d", last, tc.status)
			}
		})
	}
}

// TestShedAndRateLimitedStillTracedAndLogged layers admission inside
// observability the way adaptd does and asserts a 429 — refused before
// any handler ran — still gets a trace ID and an access-log line.
func TestShedAndRateLimitedStillTracedAndLogged(t *testing.T) {
	reg := metrics.NewRegistry()
	metrics.RegisterWellKnown(reg)
	tracer := trace.NewTracer(16)
	var buf bytes.Buffer
	var mu sync.Mutex
	h := WithAdmission(Handler(), AdmissionConfig{Rate: 1, Burst: 1})
	h = WithObservability(h, ObsConfig{Registry: reg, Tracer: tracer, AccessLog: &lockedWriter{w: &buf, mu: &mu}})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() *http.Response {
		resp, err := http.Get(srv.URL + "/v1/formats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d", resp.StatusCode)
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket = %d, want 429", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("429 response must still carry X-Trace-Id")
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "status=429") || !strings.Contains(logged, "trace="+id) {
		t.Errorf("access log %q missing the shed request", logged)
	}
	if _, ok := tracer.Get(id); !ok {
		t.Error("shed request's trace should be retained")
	}
	// The 429 counts into http.requests{code="429"}.
	var out bytes.Buffer
	reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), `http_requests{code="429"} 1`) {
		t.Errorf("/metrics missing http_requests{code=\"429\"}:\n%s", out.String())
	}
}

// TestServerErrorTracedAndLogged wraps a failing inner handler and
// checks the 500 path: X-Trace-Id set, one log line, code label
// recorded.
func TestServerErrorTracedAndLogged(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.NewTracer(4)
	var buf bytes.Buffer
	var mu sync.Mutex
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	h := WithObservability(inner, ObsConfig{Registry: reg, Tracer: tracer, AccessLog: &lockedWriter{w: &buf, mu: &mu}})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/compose")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("500 response must still carry X-Trace-Id")
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if n := strings.Count(logged, "\n"); n != 1 {
		t.Errorf("access log has %d lines, want 1:\n%s", n, logged)
	}
	if !strings.Contains(logged, "status=500") {
		t.Errorf("access log %q missing status=500", logged)
	}
	var out bytes.Buffer
	reg.WritePrometheus(&out)
	if !strings.Contains(out.String(), `http_requests{code="500"} 1`) {
		t.Errorf("/metrics missing http_requests{code=\"500\"}:\n%s", out.String())
	}
}

// TestComposeTraceRetrievable completes the trace loop: a compose
// request's X-Trace-Id resolves on GET /debug/traces?id= to a trace
// containing the graph-build and selection spans.
func TestComposeTraceRetrievable(t *testing.T) {
	srv, _, _, _, _ := obsServer(t)
	resp, err := http.Post(srv.URL+"/v1/compose", "application/json", setBody(t, testSet()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id on compose response")
	}

	dresp, err := http.Get(srv.URL + "/debug/traces?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id= status = %d", dresp.StatusCode)
	}
	var snap trace.TraceSnapshot
	if err := json.NewDecoder(dresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != id {
		t.Fatalf("trace id = %q, want %q", snap.ID, id)
	}
	want := map[string]bool{"graph.build": false, "core.select": false}
	for _, sp := range snap.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace %s missing span %q (have %d spans)", id, name, len(snap.Spans))
		}
	}
}

// TestMetricsNameCoverage pins the acceptance list: a fresh registry
// with RegisterWellKnown already exposes every failover.*, admission.*,
// journal.* series plus the new compose.* and trace.* families.
func TestMetricsNameCoverage(t *testing.T) {
	srv, _, _, _, _ := obsServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, name := range []string{
		metrics.CounterFailovers, metrics.CounterRecovered,
		metrics.CounterDegraded, metrics.CounterQuarantined,
		metrics.CounterAdmissionAdmitted, metrics.CounterAdmissionQueued,
		metrics.CounterAdmissionShedQueueFull, metrics.CounterAdmissionShedExpired,
		metrics.CounterAdmissionRateLimited,
		metrics.CounterJournalAppends, metrics.CounterJournalSyncs,
		metrics.CounterJournalSnapshots, metrics.CounterJournalReplayed,
		metrics.CounterHTTPRequests, metrics.CounterTracesCompleted,
		metrics.CounterTraceSpansDropped,
		metrics.HistComposeLatencyMs, metrics.HistHTTPLatencyMs,
		metrics.HistSelectRounds, metrics.HistQueueWaitMs,
		metrics.HistJournalAppendMs, metrics.HistJournalFsyncMs,
	} {
		prom := strings.ReplaceAll(name, ".", "_")
		if !strings.Contains(text, prom) {
			t.Errorf("/metrics missing %s (as %s)", name, prom)
		}
	}
}

// TestComposeOutcomeLabels checks compose.latency_ms aggregates by
// outcome: one ok and one no_chain request produce distinct labeled
// series.
func TestComposeOutcomeLabels(t *testing.T) {
	srv, reg, _, _, _ := obsServer(t)
	post := func(body *bytes.Buffer) {
		resp, err := http.Post(srv.URL+"/v1/compose", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post(setBody(t, testSet()))
	set := testSet()
	set.Device.Software.Decoders = []media.Format{media.AudioMP3}
	post(setBody(t, set))

	var out bytes.Buffer
	reg.WritePrometheus(&out)
	text := out.String()
	for _, want := range []string{
		`compose_latency_ms_count{outcome="ok"} 1`,
		`compose_latency_ms_count{outcome="no_chain"} 1`,
		`compose_select_rounds_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsAndTracesBypassAdmission pins the layering contract: the
// introspection endpoints answer even when admission refuses all work.
func TestMetricsAndTracesBypassAdmission(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.NewTracer(4)
	h := WithAdmission(Handler(), AdmissionConfig{Rate: 1, Burst: 1})
	h = WithObservability(h, ObsConfig{Registry: reg, Tracer: tracer})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Drain the bucket so the API itself refuses.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/formats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, path := range []string{"/metrics", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d while rate limited, want 200", path, resp.StatusCode)
		}
	}
}
