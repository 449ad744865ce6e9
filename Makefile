# QuestPro-Go build and reproduction targets. Stdlib only; requires Go 1.22+.

GO ?= go

.PHONY: all build test race chaos crash soak fuzz obs-lint api-check snapshot-check cover bench bench-json bench-merge bench-obs-overhead bench-compare bench-partial bench-gateway profile experiments examples serve clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...
	mkdir -p bin
	$(GO) build -o bin/questpro ./cmd/questpro
	$(GO) build -o bin/qpbench ./cmd/qpbench
	$(GO) build -o bin/ontgen ./cmd/ontgen
	$(GO) build -o bin/questprod ./cmd/questprod
	$(GO) build -o bin/qpgate ./cmd/qpgate
	$(GO) build -o bin/qpsoak ./cmd/qpsoak
	$(GO) build -o bin/qpobs ./cmd/qpobs

test:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) test ./...
	@$(MAKE) --no-print-directory obs-lint
	@$(MAKE) --no-print-directory api-check
	@$(MAKE) --no-print-directory snapshot-check
	@$(MAKE) --no-print-directory chaos
	@echo "== bench-compare (advisory: perf gate output; does not fail make test) =="
	-@$(MAKE) --no-print-directory bench-compare

race:
	$(GO) test -race ./internal/graph/ ./internal/obs/ ./internal/eval/ ./internal/core/ ./internal/feedback/ ./internal/service/ ./internal/store/ ./internal/gateway/ ./internal/workload/...

# Chaos harness (DESIGN.md §8): drive the full HTTP service under -race
# while the faults package injects errors and panics at every registered
# point, plus the fault-tolerance tests of the layers below (guarded
# degradation, panic isolation, load shedding, retrying client), and the
# feedback dialogue's canceled-request and abort tests.
chaos:
	$(GO) test -race -count=2 \
		-run 'Chaos|Fault|Panic|Shed|Degraded|Overload|Guard|Retr|FeedbackCanceledRequestRecovers|AbortedDialogue' \
		./internal/faults/ ./internal/conc/ ./internal/eval/ \
		./internal/core/ ./internal/store/ ./internal/service/ \
		./internal/client/ ./internal/gateway/
	@$(MAKE) --no-print-directory crash
	@$(MAKE) --no-print-directory soak

# Kill-restart chaos harness (DESIGN.md §12): build the real questprod
# binary, SIGKILL it mid-feedback-dialogue, restart it on the same
# -data-dir, and assert the pending question is re-served idempotently and
# the finished dialogue's SPARQL is byte-identical to an uninterrupted run.
crash:
	$(GO) test -race -count=1 -run 'TestCrashRecovery' ./cmd/questprod/

# Gateway soak harness (DESIGN.md §13): build the real questprod and qpgate
# binaries, drive concurrent simulated feedback dialogues through a 2-shard
# fleet while one shard is SIGKILLed and restarted on its -data-dir, and
# assert the gateway shed (503 + Retry-After) during the outage, zero
# dialogues failed after retries, and every inferred SPARQL is
# byte-identical to a direct single-backend control. QPSOAK_FULL=1 selects
# the long profile (more dialogues, more workers).
soak:
	$(GO) test -race -count=1 -run 'TestSoak' ./cmd/qpsoak/

# Fuzz every Fuzz* target of the module (FuzzParsePromText,
# FuzzRestoreSnapshot, ...) for 20s each. `go test` already replays each
# target's committed seed corpus (testdata/fuzz/<target>/) as plain tests;
# this explores beyond it, finds new failing inputs and writes them there.
# Not part of `make test`.
fuzz:
	@set -e; for file in $$(grep -rl --include='*_test.go' --exclude-dir=dialoguebench '^func Fuzz' .); do \
		dir=$$(dirname $$file); \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$target ($$dir)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime=20s $$dir; \
		done; \
	done

# Metric-naming gate (DESIGN.md §14): stand up an in-process questprod and
# qpgate and lint their live /metrics (and the gateway's /metrics/fleet)
# against the exposition contract — HELP/TYPE on every family, counters
# ending in _total, gauges not. Runs inside `make test`.
obs-lint:
	$(GO) test -count=1 -run 'TestLint|TestLive' ./internal/obslint/

# API-compatibility gate: the golden schema test of internal/api snapshots
# the JSON contract (every field name, tag and type of every wire type plus
# the error-code set) and fails on drift. Additive changes regenerate the
# snapshot with `go test ./internal/api -run TestSchemaGolden -update`;
# breaking changes must bump api.Version.
api-check:
	$(GO) test -count=1 -run 'TestSchema' ./internal/api/
	$(GO) test -count=1 -run 'TestSchema' ./internal/gateway/

# Durable-format gate: the golden schema test of the session snapshot codec
# (internal/service/snapshot.go) pins every field of the on-disk snapshot
# shapes. Additive changes regenerate with
# `go test ./internal/service -run TestSnapshotSchemaGolden -update-snapshot-schema`;
# shape changes must bump snapshotSchemaVersion and handle old snapshots.
snapshot-check:
	$(GO) test -count=1 -run 'TestSnapshotSchema' ./internal/service/

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable inference perf baseline (ns/op + merge-cache counters)
# for the bench trajectory. See cmd/qpbench/benchjson.go for the schema.
bench-json: build
	bin/qpbench -exp benchjson -scale 0.35 -explanations 8 -out BENCH_core_infer.json

# Merge-kernel baseline: ns/op, gain evaluations (incremental heap vs the
# reference scan), restarts and allocs/op. See cmd/qpbench/benchmerge.go.
bench-merge: build
	bin/qpbench -exp benchmerge -scale 0.35 -out BENCH_core_merge.json

# Observability overhead pin (DESIGN.md §9): measure InferUnion on the
# benchmerge sample with span tracing disabled and enabled, and compare the
# disabled run against the committed BENCH_core_merge.json baseline
# (calibration-scaled). The acceptance bar is <2% overhead with tracing
# off. Deliberately NOT part of `make test` — wall-clock, not correctness.
bench-obs-overhead: build
	bin/qpbench -exp benchobs -scale 0.35 -out BENCH_obs_overhead.json

# Perf-regression gate: regenerate both bench artifacts into a scratch dir
# and diff them against the committed baselines; fails on a >15% regression
# in ns/op (normalized by each artifact's calibration_ns anchor, cancelling
# uniform machine-speed drift between runs) or in allocs/op (uncalibrated —
# allocation counts are machine-independent). `make test` runs it advisory
# (failure reported but ignored, since ns/op is wall-clock); CI that wants
# the gate to be fatal runs `make bench-compare` directly.
bench-compare: build
	mkdir -p bin/bench
	bin/qpbench -exp benchjson -scale 0.35 -explanations 8 -out bin/bench/BENCH_core_infer.json
	bin/qpbench -exp benchmerge -scale 0.35 -out bin/bench/BENCH_core_merge.json
	bin/qpbench compare BENCH_core_infer.json bin/bench/BENCH_core_infer.json
	bin/qpbench compare BENCH_core_merge.json bin/bench/BENCH_core_merge.json

# Partial-provenance quality sweep: degrade p% of each explanation's edges
# (p in {0,10,25,50}), complete the fragments against the ontology, and
# score the inferred query's result set against the full-provenance one by
# F1 (p=0 must be exactly 1.0 — completion is a no-op on complete
# explanations). See cmd/qpbench/benchpartial.go for the schema.
bench-partial: build
	bin/qpbench -exp benchpartial -scale 0.35 -explanations 8 -out BENCH_partial_quality.json

# Gateway fleet-scaling baseline (DESIGN.md §13): session throughput at
# fleet sizes 1/2/4 behind an in-process qpgate, every dialogue verified
# against a direct single-backend control. Fails if the 4-backend fleet
# does not reach 3x single-backend sessions/sec at a zero error budget.
# See cmd/qpbench/benchgateway.go for the capacity model and schema.
bench-gateway: build
	bin/qpbench -exp benchgateway -out BENCH_gateway_scale.json

# Capture a 10s CPU profile from a running questprod started with
# -pprof-addr (see README "Operating questprod"). Override PPROF_ADDR to
# match the server's flag.
PPROF_ADDR ?= 127.0.0.1:8371
profile:
	$(GO) tool pprof -seconds 10 -proto -output cpu.pprof http://$(PPROF_ADDR)/debug/pprof/profile
	@echo "wrote cpu.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# Regenerate every evaluation artifact at full scale (see EXPERIMENTS.md).
experiments: build
	bin/qpbench -exp all -scale 1.0 | tee results_full.txt

# Run the inference service (HTTP/JSON; see DESIGN.md §7 and README.md for
# the API and a curl walkthrough).
serve: build
	bin/questprod -addr 127.0.0.1:8370

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/erdos
	$(GO) run ./examples/ecommerce
	$(GO) run ./examples/movies

clean:
	rm -rf bin
