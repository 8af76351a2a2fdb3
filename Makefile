GO ?= go

.PHONY: check fmt vet build test race check-run-patterns differential golden check-faults check-obs check-prof check-fusion check-durable bench-smoke bench-module fuzz-smoke clean

# check is the full pre-merge gate: formatting, static checks, build,
# one race-enabled pass over every test, a check that every -run
# filter below names a test, one run of every benchmark, and the vet
# and tests of the nested bench/ module, which the root ./... patterns
# do not reach. It writes nothing into the tree. The differential,
# golden, fault-injection, observability, profiler, fusion and
# durability suites run inside the race pass; their targets below run
# one suite alone, and check-run-patterns keeps their filters honest.
check: fmt vet build race check-run-patterns bench-smoke bench-module

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also checks the arm64 build, which has no lane kernel and folds
# windowed CP in Go.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the gate's one race-enabled pass: every test once, never
# served from the test cache.
race:
	$(GO) test -race -count=1 ./...

# check-run-patterns fails when an alternative of a -run filter in
# this Makefile matches no Test, Fuzz or Example function of its
# package: go test -run passes when an alternative matches nothing, so
# a renamed test would silently drop out of the suite that names it.
check-run-patterns:
	$(GO) test -count=1 -run 'TestMakefileRunPatterns' .

# differential runs the cross-core / cross-ISA trace-equivalence
# harness, the -parallel determinism tests, the batched run loop's
# trace digest and faults against a run of one-event batches, the
# one-event batches of every runner sink and timing model, the diff of
# the critical-path, windowed-CP and path-length analyses and of the
# merged critical-path and windowed-CP walk (TestOracle*, FuzzCritPath
# and FuzzWindowedCP) against their naive references, and the
# windowed-CP lane kernel against its Go reference fold under the
# race detector.
differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestParallel|TestRunCellParallel|TestStepNFaultsMatchUnbatched' .
	$(GO) test -race -count=1 -run 'TestOracle|FuzzWindowedCP|FuzzCritPath|TestPathLengthMatchesReference|TestLaneKernelMatchesGoFold|TestLaneKernelRenormalises' ./internal/core

# golden checks the pinned paper artifacts (Table 1/2, Figure 1/2,
# canonical manifests of the matrix and of the run subcommand), the
# SHA-256 of every compiled image, the retirement stream of every Tiny
# suite cell (trace digest and event count) and each operation's
# execution record on both ISAs under the race detector. Regenerate
# after an intentional output change with:
#	$(GO) test ./internal/report -run TestGolden -update
#	$(GO) test ./internal/cc -run TestImageGolden -update
#	$(GO) test . -run TestTraceGolden -update
#	$(GO) test ./internal/a64 -run TestOperandGolden -update
#	$(GO) test ./internal/rv64 -run TestOperandGolden -update
golden:
	$(GO) test -race -count=1 -run TestGolden ./internal/report
	$(GO) test -race -count=1 -run TestImageGolden ./internal/cc
	$(GO) test -race -count=1 -run TestTraceGolden .
	$(GO) test -race -count=1 -run TestOperandGolden ./internal/a64
	$(GO) test -race -count=1 -run TestOperandGolden ./internal/rv64

# check-faults runs the fault-injection and shutdown-path suites under
# the race detector: matrix survival with injected decode/memory/panic
# faults, retry and watchdog behaviour, and pool drain on cancel. The
# armed-but-not-firing watchdog byte-identity row lives in
# TestParallelByteIdentical (differential).
check-faults:
	$(GO) test -race -count=1 ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestMatrixSurvives|TestRetry|TestHungCell|TestSlowCell|TestBudget|TestFailFast|TestValidate|TestFailedRow' ./internal/report
	$(GO) test -race -count=1 -run 'TestPool|TestFanout' ./internal/sched

# check-obs runs the observability suites under the race detector:
# Prometheus exposition goldens, status board and SSE semantics, the
# live-matrix HTTP round trip with injected faults, the flight
# recorder, the meter and the -progress heartbeat, the byte identity
# of a run watched by every observer at -parallel 1 and 2 (its
# results and a sink panic's failure record), structured
# logging, the pipeline tracer (its ring and formats, and the
# emulation core's trace through the runner), manifest
# canonicalization — and the goroutine-leak shutdown contract
# (TestObsShutdown: the server follows experiment-context cancellation
# and Close leaves nothing behind).
check-obs:
	$(GO) test -race -count=1 ./internal/obs/...
	$(GO) test -race -count=1 -run 'TestCanonicalize|TestTrace|TestChromeTrace|TestWriteJSONL' ./internal/telemetry
	$(GO) test -race -count=1 -run 'TestEmulationTrace' ./internal/report

# check-prof runs the span-profiler suites under the race detector:
# the prof package itself (ring/totals semantics, Chrome-trace export,
# zero-allocation and nil-hook cost pins), worker-lane and
# queue-wait accounting in the pool, timed fan-out, and the
# matrix-level contracts — profile on/off byte-identity, a cell's
# simulate, deliver and sink spans within its wall time (no consumer
# counted twice), and the <= 1% disabled-profiler overhead gate.
check-prof:
	$(GO) test -race -count=1 ./internal/prof
	$(GO) test -race -count=1 -run 'TestPoolGoW|TestPoolStatsBlocked|TestFanoutTimed' ./internal/sched
	$(GO) test -race -count=1 -run 'TestProfiledByteIdentical|TestProfileSpansWithinWall|TestProfilerOffOverheadBudget' .

# check-fusion runs the macro-op fusion suites under the race
# detector: the rule/merge/batch-seam unit tests, the report-level
# fusion wiring tests, and the matrix-level contracts — fusion-off
# byte-identity, fusion-on differential equivalence and identity
# between whole and one-event batches under fusion.
check-fusion:
	$(GO) test -race -count=1 ./internal/fusion
	$(GO) test -race -count=1 -run 'TestFusion|TestGoldenFusion' ./internal/report
	$(GO) test -race -count=1 -run 'TestFusion' .

# check-durable runs the crash-safety suites under the race detector:
# the durable package itself (content cache, survived cache-write
# errors, atomic writes), and the report-level contracts — a rerun
# after lost cache entries, warm-cache zero-recompute, a spec change
# missing the cache, no serving across core or cache models and no
# caching of traced cells, failures recomputed rather than cached,
# drained cells rerun, backoff interruption, and the SIGKILL chaos
# test (kill a live matrix at a randomized point, check that every
# cache entry left is a whole row, rerun, diff byte-for-byte against
# the uninterrupted run).
check-durable:
	$(GO) test -race -count=1 ./internal/durable
	$(GO) test -race -count=1 -run 'TestDurable|TestDrainInterruptsRetryBackoff|TestChaos' ./internal/report

# fuzz-smoke runs each native fuzz target briefly. Longer campaigns:
#	$(GO) test -fuzz FuzzDecodeA64 -fuzztime 5m ./internal/a64
fuzz-smoke:
	$(GO) test -fuzz FuzzDecodeA64 -fuzztime 5s ./internal/a64
	$(GO) test -fuzz FuzzDecodeRV64 -fuzztime 5s ./internal/rv64
	$(GO) test -fuzz FuzzFusionStream -fuzztime 5s ./internal/fusion
	$(GO) test -fuzz FuzzWindowedCP -fuzztime 5s ./internal/core
	$(GO) test -fuzz FuzzCritPath -fuzztime 5s ./internal/core

# bench-smoke runs every go test benchmark once, so a benchmark that
# panics or no longer matches the API it calls fails the gate. It
# measures nothing; see bench/README.md for the benchmark proper.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-module vets and tests the nested bench/ module (the benchmark
# harness; see bench/README.md). Run the benchmark itself with
# `bash bench/run.sh`, and compare two result documents with its
# compare subcommand.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

clean:
	rm -rf .bench_build bench/out
