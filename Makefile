GO ?= go
FUZZTIME ?= 10s
FAULT_N ?= 144
FAULT_SEED ?= 1
PTFUZZ_SEED ?= 1
PTFUZZ_EXECS ?= 4000

.PHONY: build vet lint test race race-campaign fault-campaign fuzz fuzz-smoke serve-smoke obs-smoke bench bench-check bench-fuzz bench-superblock bench-obs trace-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks beyond vet: gofmt drift anywhere in the tree, the custom
# guest-memory taint-discipline analyzer (internal/lint/taintaccess) over
# the whole tree, then the pointer-taintedness static analyzer (ptlint)
# over the entire corpus — any panic or analysis error fails the build;
# unsound verdicts are caught by the soundness tests in internal/attack
# (run via test/ci).
lint: vet
	test -z "$$(gofmt -l .)"
	$(GO) run ./cmd/taintlint .
	$(GO) run ./cmd/ptlint -all -summary

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The snapshot/fork + campaign layer under the race detector with shuffled
# test order: COW page semantics, concurrent forks, and the parallel-vs-
# sequential determinism check are exactly the tests whose bugs only show
# up under races and ordering. internal/cpu rides along for the superblock
# fork-isolation and invalidation tests; internal/fuzz prepares targets
# while sessions run, ptattack drives the boot options end to end, and
# ptrun drives obs spans around a build and run. internal/core holds the
# one machine assembler and snapshot/fork; ptdbg boots through it too. internal/prov rides along because every
# fork's label table reads its snapshot's frozen table concurrently, and
# internal/asm because concurrent forks build and read an image's lazy
# symbol index when they attribute alerts. internal/metrics rides along
# because campaign folds and ptserve's absorb and scrape share snapshot
# accumulators.
race-campaign:
	$(GO) test -race -shuffle=on ./internal/metrics/ ./internal/mem/ ./internal/asm/ ./internal/prov/ ./internal/campaign/ ./internal/core/ ./internal/attack/ ./internal/kernel/ ./internal/netsim/ ./internal/fault/ ./internal/fuzz/ ./internal/cpu/ ./internal/serve/ ./internal/obs/ ./cmd/ptattack/ ./cmd/ptcampaign/ ./cmd/ptfault/ ./cmd/ptfuzz/ ./cmd/ptserve/ ./cmd/ptrun/ ./cmd/ptdbg/

# A small seeded fault-injection campaign with the invariants enforced:
# zero SilentTaintLoss on the un-faulted control arm, every attack-arm
# control run detected, every benign-arm control run Benign, and the
# injected attack arm still detecting (see internal/fault and cmd/ptfault).
fault-campaign:
	$(GO) run ./cmd/ptfault -seed $(FAULT_SEED) -n $(FAULT_N) -check

# Differential fuzzing of the block fast path against the reference
# interpreter (internal/cpu/fuzz_test.go), then of generated loop nests
# across the reference, block-only and superblock engines
# (internal/cpu/sbgen_test.go).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStepEquivalence -fuzztime $(FUZZTIME) ./internal/cpu/
	$(GO) test -run '^$$' -fuzz FuzzSuperblockGen -fuzztime $(FUZZTIME) ./internal/cpu/

# Seeded, bounded attack-fuzzing acceptance run (~seconds): the
# coverage-guided farm must rediscover all three scripted attack alert
# fingerprints (exp1, exp2 and wu-ftpd) from benign seeds alone.
fuzz-smoke:
	$(GO) run ./cmd/ptfuzz -seed $(PTFUZZ_SEED) -execs $(PTFUZZ_EXECS) -check 3

# The multi-tenant service end to end: the hostile-tenant chaos suite
# (admission, containment, backpressure, shedding, drain, per-tenant
# accounting) plus the binary-level smoke test — boot on a random port,
# contain a runaway guest over real HTTP, drain on SIGINT.
serve-smoke:
	$(GO) test -run 'TestChaos|TestServeSmoke' -v ./internal/serve/ ./cmd/ptserve/

# Observability acceptance for the service: the span tracer / flight
# recorder / Chrome-composition unit tests, a seeded ptserve run assert-
# ing the deterministic span tree shape and that the flight recorder
# fires exactly on an injected Timeout, the Prometheus exposition and
# monotonic-scrape checks, the seeded fault-campaign flight determinism
# (byte-identical minus durations at any worker count and across both
# engines), and the committed BENCH_obs.json within its own ceilings.
obs-smoke:
	$(GO) test ./internal/obs/
	$(GO) test -run 'TestObsSmoke|TestMetricsPrometheus|TestMetricsMonotonic|TestSessionEventsSSE' -v ./internal/serve/
	$(GO) test -run 'TestFlightRecorder|TestWriteFlights|TestBenignRunsLeaveNoFlight' ./internal/fault/
	$(GO) test -run TestObsBenchGuard .

bench:
	$(GO) test -run '^$$' -bench 'StepFastPath|SPEC' -benchmem .
	$(GO) test -run '^$$' -bench CovMap -benchmem ./internal/cpu/
	$(GO) test -run '^$$' -bench Candidate -benchmem ./internal/fuzz/
	$(GO) test -run '^$$' -bench FaultCampaign -benchmem ./internal/fault/
	$(GO) test -run '^$$' -bench MachineMetrics -benchmem ./internal/attack/
	$(GO) test -run '^$$' -bench Summarize -benchmem ./internal/campaign/

# The end-to-end benchmark harness (bench/, its own module) vetted and
# tested against the library as it stands, so a library change that
# breaks the harness's build fails CI.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Machine-readable fuzzing-farm benchmark: execs/sec with the fork +
# coverage + classification overhead included (see BENCH_fuzz.json).
bench-fuzz:
	$(GO) run ./cmd/ptfuzz -seed $(PTFUZZ_SEED) -execs 4000 -check 3 -bench BENCH_fuzz.json

# Re-record the superblock-tier baseline: the clean hot loop with and
# without trace fusion, written to BENCH_superblock.json (see the ceiling
# in bench_guard_test.go).
bench-superblock:
	PTBENCH_RECORD=1 $(GO) test -run TestSuperblockBenchGuard -v .

# Re-record the observability-primitive baseline: span start/end pairs
# and flight-recorder ring notes, written to BENCH_obs.json (ceilings in
# bench_guard_test.go).
bench-obs:
	PTBENCH_RECORD=1 $(GO) test -run TestObsBenchGuard -v .

# Observability acceptance: the provenance differential pass (chains
# terminate at concrete input bytes, byte-identical across both engines
# and across snapshot forks, perturbation-free when disabled), the event
# sink/tracer unit tests, and the armed bench guards — the basic-block
# path within tolerance of BENCH_provenance.json and the superblock tier
# under its BENCH_superblock.json ceiling.
trace-check:
	$(GO) test -run TestProvenance -v ./internal/attack/
	$(GO) test -run 'TestEventSink|TestWrite|TestStream|TestDestReg|TestUsesRt|TestTracer' ./internal/cpu/
	PTBENCH_GUARD=1 $(GO) test -run 'TestProvenanceBenchGuard|TestSuperblockBenchGuard' -v .

ci: lint build bench-check race race-campaign fault-campaign fuzz fuzz-smoke serve-smoke obs-smoke trace-check
