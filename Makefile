GO ?= go

.PHONY: all build test vet race race-all fuzz-smoke cluster-smoke storm-smoke storm-cluster-smoke bench bench-select bench-pipeline bench-pipeline-json bench-snapshot bench-storm pipeline-guard trace-overhead perfbench-check reachability lint check ci

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-all races every concurrent surface in one target: the
# observability surfaces (metrics registry, tracer, HTTP middleware,
# federation and trace stitching), the replicated tier (WAL shipping,
# promotion, routing, leases), the storm tier with the graph refreshes
# and overlay swaps it drives, the data plane, and the durable session
# layer the daemon runs on.
race-all:
	$(GO) test -race -count=1 \
		./internal/metrics/ ./internal/trace/ ./internal/httpapi/ \
		./internal/cluster/ ./internal/registry/ \
		./internal/storm/ ./internal/graph/ ./internal/overlay/ \
		./internal/pipeline/ ./internal/transcode/ \
		./internal/journal/ ./internal/session/ ./internal/sim/

# fuzz-smoke runs every fuzz target for a short, fixed time: format
# parsing, profile-set decoding, format interning, storm record replay,
# the session fault command, session command replay and the journal's
# on-disk record scanner, 10s each. go test fuzzes one target per package per run.
# -fuzzminimizetime 10x bounds how long a worker minimizes each new
# input: by default it may spend 60s on one, reporting no execs
# meanwhile, and a target whose execs take milliseconds
# (FuzzApplyFault opens a durable manager per exec) then spends the
# whole 10s minimizing instead of fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseFormat$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/media/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSet$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/profile/
	$(GO) test -run '^$$' -fuzz '^FuzzFormatInterning$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayRecord$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/storm/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyFault$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/session/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayRecord$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/session/
	$(GO) test -run '^$$' -fuzz '^FuzzScanFile$$' -fuzztime 10s -fuzzminimizetime 10x ./internal/journal/

# cluster-smoke runs seeded node-kill scenarios against a 3-replica
# Figure 6 deployment: WAL shipping over real sockets, lease-expiry
# death detection, follower promotion. Fails unless every adopted
# session is byte-identical with zero leaked bandwidth and the dead
# node's shipper is fenced.
cluster-smoke:
	$(GO) run ./cmd/adaptsim -cluster -trials 5 -seed 7

# storm-smoke runs a seeded correlated backbone event over a scaled
# multi-region deployment and mass re-composes by equivalence class.
# Fails unless Select cost is sub-linear in the affected sessions
# (≤ 0.05 calls/session), no bandwidth leaks, and every member chain
# matches the naive per-session re-evaluation byte-for-byte.
storm-smoke:
	$(GO) run ./cmd/adaptsim -storm -storm-sessions 4000 -seed 7

# storm-cluster-smoke runs the storm-safe live path end to end: live
# /v1/sessions creates attach to equivalence classes on a replicated
# pair, a backbone loss spike storms the classes, the primary's journal
# dies after the fault's record and before its storm's, and the
# follower — holding the fault without the storm — must re-plan on
# promotion to the byte-identical controller fingerprint with zero
# leaked bandwidth (EXPERIMENTS.md EXT-P).
storm-cluster-smoke:
	$(GO) run ./cmd/adaptsim -storm-cluster -trials 2 -seed 7

# trace-overhead runs the instrumentation-overhead guards: BenchmarkSelect
# traced vs plain, and the session re-evaluation path with the storm
# controller's full QoS SLO tracking vs a nil counter sink. Both must
# stay within a 5% budget.
trace-overhead:
	TRACE_OVERHEAD_GUARD=1 $(GO) test -run 'TestTracingOverheadGuard|TestSLOOverheadGuard' -count=1 -v ./

# bench-select runs the selection hot-path benchmarks with allocation
# reporting, repeated for benchstat-comparable output. Compare against
# the records in BENCH_selection.json.
bench-select:
	$(GO) test -run 'TestNone' -bench 'Select' -benchmem -count=5 ./

# bench-pipeline runs the data-plane throughput benchmarks (seed
# protocol vs batched executor) with allocation reporting, repeated for
# benchstat-comparable output. Compare against BENCH_pipeline.json.
bench-pipeline:
	$(GO) test -run 'TestNone' -bench 'DataPlane' -benchmem -count=5 ./

# bench-pipeline-json reruns the data-plane benchmarks and regenerates
# BENCH_pipeline.json from them: the reference, batched and executor
# rows (median of the 5 counts), the machine block and the acceptance
# numbers. The script writes nothing unless every benchmark reported.
bench-pipeline-json:
	$(GO) test -run '^$$' -bench 'DataPlane' -benchmem -count=5 ./ | tee /dev/stderr | \
		python3 scripts/bench_pipeline_json.py --out BENCH_pipeline.json

# bench-snapshot times one journal snapshot of a durable session
# manager holding 1024 creates and 256 collapse/restore fault pairs,
# with allocation reporting, repeated for benchstat-comparable output.
bench-snapshot:
	$(GO) test -run '^$$' -bench 'ManagerSnapshot' -benchmem -count=5 ./internal/session/

# bench-storm times one collapse storm of the fault-storm shape (4
# regions × 8 classes × 32 reserving members; 8 classes and 256 members
# re-planned per storm) with allocation reporting, repeated for
# benchstat-comparable output.
bench-storm:
	$(GO) test -run '^$$' -bench 'StormCollapse' -benchmem -count=5 ./internal/storm/

# pipeline-guard runs the data-plane regression guard: the batched Run
# must stay >= 9.9x faster than the seed-protocol reference (23.5x
# recorded in BENCH_pipeline.json; the floor is 90% of an earlier 11x)
# at < 1 alloc/frame.
pipeline-guard:
	PIPELINE_PERF_GUARD=1 $(GO) test -run TestPipelinePerfGuard -count=1 -v ./

# bench runs the full benchmark suite once (every table/figure of the
# paper plus the extension experiments).
bench:
	$(GO) test -run 'TestNone' -bench . -benchmem ./

# reachability lists the exported functions and methods under internal/
# that no non-test file outside perfbench/ references (a name-based scan,
# see scripts/reachability/main.go) and fails when one appears that is
# not on the committed allowlist. The list may shrink, never grow:
# delete or call new dead exports, and drop allowlist entries the scan
# reports as gone.
reachability:
	$(GO) run ./scripts/reachability -allow scripts/reachability/allowlist.txt

# lint runs staticcheck and govulncheck when they are installed, and
# skips each gracefully when not (CI installs both; local machines may
# not have them).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# perfbench-check vets and tests the end-to-end benchmark. perfbench/ is
# a Go module of its own (replace qoschain => ../), so ./... from the
# repository root never compiles it; this keeps API changes from
# breaking the benchmark unnoticed. Runs offline.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

check: vet build test

ci: vet build race perfbench-check
