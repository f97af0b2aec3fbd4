// Command adaptd serves the composition framework over HTTP: content
// servers and proxies POST a profile set and receive the selected
// adaptation chain.
//
// Usage:
//
//	adaptd -listen 127.0.0.1:8080
//
// Overload protection (see internal/admission) is opt-in:
//
//	adaptd -max-inflight 64 -request-timeout 2s -rate 50
//
// Durable session state (see internal/journal) is opt-in: with
// -state-dir every session command is journaled through a checksummed
// write-ahead log and replayed on the next start, so a crash (even a
// SIGKILL mid-write) loses nothing that was acknowledged. Recovery
// re-applies bandwidth reservations, reconciles holds whose links died,
// and reports what it rebuilt on /healthz.
//
//	adaptd -state-dir /var/lib/adaptd -snapshot-every 64
//
// Sessions created over POST /v1/sessions fold into storm equivalence
// classes on shared region overlays (see internal/storm): a fault
// re-composes once per affected class, not once per session, and
// /healthz carries the controller's status.
//
// Observability is always on: every response carries an X-Trace-Id
// header, GET /metrics serves the Prometheus text exposition, and
// GET /debug/traces returns the last completed request traces. An
// access log (-access-log) and a private pprof/expvar listener with
// mutex and block profiling (-debug-addr) are opt-in:
//
//	adaptd -access-log - -debug-addr 127.0.0.1:8081
//
// Replicated operation (see internal/cluster) is opt-in: with
// -cluster-id the daemon joins a cluster through a registryd membership
// lease, ships its session journal to the rendezvous-elected follower,
// and mirrors the followers that elect it. A router (or any peer) can
// then promote a dead node's replica and adopt its sessions.
//
//	adaptd -state-dir /var/lib/adaptd -cluster-id n1 \
//	    -cluster-registry 127.0.0.1:7600 -overlay-host p1
//
// Endpoints: GET /healthz, GET /v1/formats, POST /v1/compose,
// POST /v1/composeBatch, POST /v1/graph — see internal/httpapi for the
// contract. Cluster nodes additionally serve POST /v1/cluster/ship,
// POST /v1/cluster/promote and GET /v1/cluster/status. Example:
//
//	qospath -example | curl -s -X POST --data-binary @- \
//	    'http://127.0.0.1:8080/v1/compose?trace=1'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qoschain/internal/cluster"
	"qoschain/internal/debugz"
	"qoschain/internal/httpapi"
	"qoschain/internal/metrics"
	"qoschain/internal/registry"
	"qoschain/internal/session"
	"qoschain/internal/store"
	"qoschain/internal/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	storeDir := flag.String("store", "", "profile store directory (enables /v1/profiles and /v1/compose/byref)")
	maxInFlight := flag.Int("max-inflight", 0, "cap on concurrently served requests (0 disables the limiter)")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for a slot (default 4x -max-inflight; -1 for none)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline propagated into the planner (0 unbounded)")
	rate := flag.Float64("rate", 0, "per-client requests per second (0 disables rate limiting)")
	burst := flag.Float64("burst", 0, "per-client token-bucket depth (default 2x -rate)")
	stateDir := flag.String("state-dir", "", "session state directory (enables the write-ahead journal and crash recovery)")
	snapshotEvery := flag.Int("snapshot-every", 0, "journal commands between compacting snapshots (0 = default 64)")
	debugAddr := flag.String("debug-addr", "", "private diagnostics listener (pprof with mutex/block profiling, /debug/vars, /metrics, /debug/traces)")
	accessLog := flag.String("access-log", "", "write one structured line per request to this file (\"-\" for stdout)")
	traceKeep := flag.Int("trace-keep", trace.DefaultKeep, "completed request traces kept for /debug/traces")
	clusterID := flag.String("cluster-id", "", "node ID in a replicated composition tier (requires -state-dir and -cluster-registry)")
	clusterRegistry := flag.String("cluster-registry", "", "registryd address holding the cluster's membership leases")
	advertise := flag.String("advertise", "", "address other nodes reach this one at (default: the bound listen address)")
	overlayHost := flag.String("overlay-host", "", "overlay host this node represents; injected as a host crash when a peer promotes our replica")
	clusterLease := flag.Duration("cluster-lease", 10*time.Second, "membership lease TTL; a node silent past this is declared dead")
	shipInterval := flag.Duration("ship-interval", time.Second, "how often the journal is shipped to the follower (also the heartbeat cadence)")
	flag.Parse()

	if *clusterID != "" && (*stateDir == "" || *clusterRegistry == "") {
		fmt.Fprintln(os.Stderr, "adaptd: -cluster-id requires -state-dir and -cluster-registry")
		os.Exit(1)
	}

	// One registry and tracer observe the whole process: every handler
	// layer writes into them, /metrics and /debug/traces read from them,
	// and expvar mirrors the registry for stock tooling.
	reg := metrics.NewRegistry()
	metrics.RegisterWellKnown(reg)
	metrics.PublishExpvar("qoschain", reg)
	tracer := trace.NewTracer(*traceKeep)

	var opts httpapi.Options
	opts.Metrics = reg
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptd:", err)
			os.Exit(1)
		}
		opts.Store = st
	}
	var sessions *session.Manager
	var node *cluster.Node
	if *stateDir != "" {
		if *clusterID != "" {
			var err error
			node, err = cluster.NewNode(cluster.NodeConfig{
				ID:            *clusterID,
				StateDir:      *stateDir,
				Host:          *overlayHost,
				SnapshotEvery: *snapshotEvery,
				Counters:      metrics.CountersOn(reg),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptd: recovering cluster state:", err)
				os.Exit(1)
			}
			sessions = node.Manager()
			opts.Sessions = node
		} else {
			var err error
			sessions, err = session.NewManager(session.ManagerConfig{
				StateDir:      *stateDir,
				SnapshotEvery: *snapshotEvery,
				Counters:      metrics.CountersOn(reg),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptd: recovering state:", err)
				os.Exit(1)
			}
			opts.Sessions = sessions
		}
		rec := sessions.Recovery()
		if rec.Sessions > 0 || rec.JournalRecords > 0 || rec.TruncatedBytes > 0 {
			fmt.Printf("adaptd: recovered %d sessions (snapshot seq %d, %d journal records, %d torn bytes truncated)\n",
				rec.Sessions, rec.SnapshotSeq, rec.JournalRecords, rec.TruncatedBytes)
		}
		for _, msg := range rec.ReplayErrors {
			fmt.Fprintln(os.Stderr, "adaptd: replay:", msg)
		}
		// Finish any storm the journal left open (begin without end) and
		// re-compose around holds whose links died with the previous
		// process.
		if rep := sessions.Reconcile(); rep.Recomposed > 0 {
			fmt.Printf("adaptd: reconciled %d sessions, released %.0f kbps of stale holds\n",
				rep.Recomposed, rep.ReleasedKbps)
		}
	} else {
		// No journal: class state dies with the process, but the live
		// path — shared regions, class-at-a-time re-composition — is the
		// same.
		var err error
		sessions, err = session.NewManager(session.ManagerConfig{
			Counters: metrics.CountersOn(reg),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptd:", err)
			os.Exit(1)
		}
		opts.Sessions = sessions
	}
	// /healthz and /metrics report the manager's embedded controller.
	opts.Storm = sessions.StormController()
	handler := httpapi.HandlerWithOptions(opts)
	handler = httpapi.WithAdmission(handler, httpapi.AdmissionConfig{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *requestTimeout,
		Rate:           *rate,
		Burst:          *burst,
		Metrics:        metrics.CountersOn(reg),
	})
	// Cluster endpoints (ship/promote/status) mount outside admission —
	// replication must not be shed with client traffic — but inside the
	// observability layer, so they are traced and counted.
	if node != nil {
		handler = node.Handler(handler)
	}
	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptd:", err)
			os.Exit(1)
		}
		defer f.Close()
		accessW = f
	}
	// Observability is the outermost layer so shed and rate-limited
	// requests are still traced, logged and counted, and so /metrics and
	// /debug/traces answer while the API is refusing work.
	handler = httpapi.WithObservability(handler, httpapi.ObsConfig{
		Registry:  reg,
		Tracer:    tracer,
		AccessLog: accessW,
	})

	if *debugAddr != "" {
		debugz.EnableProfiling()
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptd:", err)
			os.Exit(1)
		}
		fmt.Printf("adaptd: diagnostics on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			dsrv := &http.Server{Handler: debugz.Handler(reg, tracer), ReadHeaderTimeout: 5 * time.Second}
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "adaptd: debug listener:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptd:", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	fmt.Printf("adaptd: serving on http://%s\n", ln.Addr())

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// drains in-flight requests before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cluster heartbeat: keep the membership lease alive (self-healing
	// across registryd restarts), learn the membership, and ship the
	// journal suffix to the rendezvous-elected follower. One loop does
	// all three so a node is exactly as alive as its replication stream.
	if node != nil {
		addr := *advertise
		if addr == "" {
			addr = ln.Addr().String()
		}
		// The registry speaks a plain TCP protocol; forgive a pasted URL.
		regAddr := strings.TrimPrefix(strings.TrimPrefix(*clusterRegistry, "http://"), "https://")
		registrar := registry.NewRegistrar(registry.RegistrarConfig{
			Addr:    regAddr,
			Lease:   *clusterLease,
			Timeout: 5 * time.Second,
			Member:  &registry.Member{ID: *clusterID, Addr: addr, Host: *overlayHost},
		})
		defer registrar.Close()
		fmt.Printf("adaptd: cluster node %s advertising %s (registry %s, lease %v)\n",
			*clusterID, addr, *clusterRegistry, *clusterLease)
		go func() {
			tick := time.NewTicker(*shipInterval)
			defer tick.Stop()
			var lastErr string
			report := func(err error) {
				// Log state transitions, not every failing tick; the
				// live stream state is on /healthz.
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				if msg != lastErr && msg != "" {
					fmt.Fprintln(os.Stderr, "adaptd: cluster:", msg)
				}
				lastErr = msg
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				hctx, cancel := context.WithTimeout(ctx, *shipInterval+5*time.Second)
				err := registrar.Heartbeat(hctx)
				if err == nil {
					var members []registry.Member
					if members, err = registrar.Members(hctx); err == nil {
						if follower, ok := cluster.FollowerOf(members, *clusterID); ok {
							node.Shipper().SetPeer(follower)
							_, err = node.Shipper().Ship(hctx)
						}
					}
				}
				cancel()
				report(err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "adaptd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("adaptd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "adaptd: shutdown:", err)
			os.Exit(1)
		}
		// A clean exit snapshots the session state, compacting the
		// journal to exactly the live sessions (and, on a cluster node,
		// every replica's mirror).
		switch {
		case node != nil:
			if err := node.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "adaptd: closing state:", err)
				os.Exit(1)
			}
		case sessions != nil:
			if err := sessions.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "adaptd: closing state:", err)
				os.Exit(1)
			}
		}
	}
}
