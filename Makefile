# branchcost — reproduction of Hwu/Conte/Chang, ISCA 1989.

GO ?= go

.PHONY: all build test vet race telemetry-check chaos chaos-serve serve-check verify frontend-check pareto workloads-check bench bench-json corpus-bench replay-bench repro tables figures ablations fuzz fuzz-short goldens clean

all: build vet test race telemetry-check chaos serve-check verify frontend-check pareto workloads-check

# Differential-oracle gate: record-or-load the whole benchmark corpus, then
# replay every trace through each context-free scheme and its deliberately
# naive oracle twin (internal/oracle) in lockstep. Any disagreement is
# reported with its step index and branch site, and fails the build.
VERIFY_CORPUS ?= .verify-corpus
verify:
	$(GO) run ./cmd/btrace -corpus $(VERIFY_CORPUS) -record-suite
	$(GO) run ./cmd/btrace -corpus $(VERIFY_CORPUS) -verify

# Frontend-model gate. First the two identity tests that make the
# trace-fed pipeline simulator exact, on every registered benchmark for the
# original and the FS-transformed binary: the walk (vm.Walk) rebuilds the
# VM's fetch stream position for position, and the trace-driven pipesim.Sim
# equals the live one field for field at W ∈ {1,2,4,8}. Then replay every
# paper benchmark (Table 5's extras included) through the simulator and
# assert the calibrated analytic cost models agree with the simulation
# within each run's provable tolerance (exact at W=1, alignment-bounded at
# wider fetch); exits nonzero on any violation.
frontend-check:
	$(GO) test -count=1 -run 'TestWalkMatchesRun' ./internal/vm
	$(GO) test -count=1 -run 'TestTraceDrivenMatchesLive' ./internal/pipesim
	$(GO) run ./cmd/branchsim -frontend-check

# Storage-vs-accuracy frontier: replay the predictor zoo (SBTB/CBTB/btb2l
# plus gshare/local/perceptron/TAGE, ≥3 geometries each, FS as the
# zero-storage baseline) through a warm corpus and emit the Pareto rows as
# PARETO_<date>.json next to the BENCH_*.json manifests.
pareto:
	$(GO) run ./cmd/btrace -corpus $(BENCH_CORPUS) -record-suite
	$(GO) run ./cmd/branchsim -corpus $(BENCH_CORPUS) -pareto \
		-pareto-json PARETO_$$(date +%Y%m%d).json
	@echo "wrote PARETO_$$(date +%Y%m%d).json"

# Workload conformance gate: every registered benchmark — the paper suite
# and the modern adversarial classes — must honour its machine-checked
# contract. Declared fingerprints hold within tolerance across seeds,
# generators and recorded traces are bit-identical run to run, the modern
# classes replay to their committed golden per-scheme scores, each class's
# headline inversion holds with an asserted margin (interp rewards history,
# scans flip CBTB on data order, btb-stress defeats history and cliffs past
# BTB capacity, ctx-storm favours local), and the replay oracle agrees on
# every class trace.
workloads-check:
	$(GO) test -count=1 -run \
		'TestFingerprint|TestScanPairSameFingerprint|TestInputDeterminism|TestGeneratorDeterminism|TestProgramDeterminism|TestTraceDeterminism|TestClassGoldenScores|TestInterpInversion|TestScanOrderFlip|TestStressDefeatsHistory|TestStormFavorsLocal|TestStressCapacityCliff|TestClassOracleVerify' \
		./internal/workloads ./internal/profile

# Chaos gate: the fault-injection suite under the race detector — faultfs
# plan semantics, corpus behaviour under injected I/O faults and torn
# renames, end-to-end self-healing (quarantine + live re-record), and the
# degrade-don't-die scheduler (deadline kills a hung workload, transient
# faults earn bounded retries). Deterministic by construction: every plan is
# seeded (the probabilistic cases replay seeds {1, 7, 42}), so a failure here
# reproduces exactly.
chaos:
	$(GO) test -race ./internal/faultfs
	$(GO) test -race -run 'TestChaos' ./internal/corpus
	$(GO) test -race -run 'TestCorpusSelfHealing|TestCorpusTransientLoadPropagates' ./internal/core
	$(GO) test -race -run 'TestSuiteDegradeDontDie|TestSuiteRetryHealsTransientFault|TestSuiteEvalNamesContinuesPastFailure|TestRunContext' ./internal/experiments ./internal/vm

# Daemon availability gate: boot the evaluation server over a fault-injecting
# corpus (probabilistic read errors, a torn rename, per-op latency, a byte
# budget that keeps eviction churning) and hammer it with concurrent clients
# across rolling restarts. Asserts the server never wedges, /healthz answers
# throughout, every failure is a structured typed error (never a panic),
# each instance drains within its deadline, the byte budget holds, and a
# post-chaos clean run self-heals to scores bit-identical to a chaos-free
# baseline with the replay oracle agreeing on every healed trace.
chaos-serve:
	$(GO) test -race -run 'TestChaosServe' -count=1 -v ./internal/serve

# Daemon smoke gate (tier-1): exercise cmd/branchcostd as a real process
# under the race detector — boot, parse the listening line, poll /readyz
# through the corpus warm-check, run one evaluation over HTTP, then SIGTERM
# and require a clean drain and exit 0. The in-process server suite
# (admission control, rate limiting, drain, panic isolation, uploads) runs
# alongside it.
serve-check:
	$(GO) test -race -count=1 -run 'TestServe|TestDaemonSmoke' ./internal/serve ./cmd/branchcostd

# Tier-1 guard for the observability layer: vet plus the race detector over
# the telemetry substrate and the layers that feed it concurrently. -short
# skips the timing assertions, which race instrumentation would inflate;
# plain `make test` still enforces them.
telemetry-check:
	$(GO) vet ./internal/telemetry ./internal/core ./internal/experiments
	$(GO) test -race -short ./internal/telemetry
	$(GO) test -race -short -run 'TestSuiteTelemetry|TestSuiteSingleflight' ./internal/experiments

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The replay engine shares each recorded trace across concurrent scorers;
# the race detector guards that read-only contract. Race instrumentation
# slows internal/experiments to 6-8 minutes on a 2-vCPU host, close to go
# test's default 10-minute package timeout, hence the explicit one.
race:
	$(GO) test -race -short -timeout 20m ./...

# Short mode trims the differential fuzzer's program count.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark record: run the headline comparison through a
# warm corpus and save the run manifests + counter snapshot as
# BENCH_<date>.json (phase timings, per-scheme accuracies, VM run counts).
BENCH_CORPUS ?= .bench-corpus
bench-json:
	$(GO) run ./cmd/btrace -corpus $(BENCH_CORPUS) -record-suite
	$(GO) run ./cmd/branchsim -corpus $(BENCH_CORPUS) -headline \
		-metrics BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# Warm-corpus suite replay (zero VM execution) vs. live re-execution.
corpus-bench:
	$(GO) test ./internal/experiments -run '^$$' \
		-bench 'BenchmarkSuiteCorpusReplay|BenchmarkSuiteLiveReexec' -benchmem

# Per-scheme scoring cost: ns/event of every registered scheme alone, of
# all of them and of the daemon's upload set in one tracefile.Score call,
# over five recorded traces; then, on one CPU, the SBTB and CBTB over a
# working set twice their size (every insert evicts) and the per-event
# Evaluator.Observe path; then the one way a trace file is read and scored,
# ReadTrace plus tracefile.Score, in ns/op and B/op.
replay-bench:
	$(GO) test . -run '^$$' -bench 'BenchmarkSchemeReplay' -benchtime 1x
	$(GO) test . -run '^$$' -bench '^Benchmark(SBTB|CBTB|PredictorEvaluation)$$' -cpu 1
	$(GO) test . -run '^$$' -bench '^BenchmarkTraceReplay$$'

# Regenerate the paper's full evaluation (tables, figures, ablations).
repro:
	$(GO) run ./cmd/branchsim -all

tables:
	for t in 1 2 3 4 5; do $(GO) run ./cmd/branchsim -table $$t; done

figures:
	$(GO) run ./cmd/branchsim -figure 3
	$(GO) run ./cmd/branchsim -figure 4

ablations:
	for a in counter btbsize assoc ctxswitch static cycle scaling \
	         delay icache crossval opt hwcost sensitivity traces \
	         frontend pareto; do \
		$(GO) run ./cmd/branchsim -ablate $$a; done

# Fuzzing: the language front end, the BCT2 trace decoder, and the scheme
# option space (rejected with a typed error, or built and oracle-checked).
FUZZTIME ?= 5m
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -fuzz FuzzInterp -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -fuzz FuzzBCT2Decode -fuzztime $(FUZZTIME) ./internal/tracefile
	$(GO) test -fuzz FuzzSchemeOptions -fuzztime $(FUZZTIME) ./internal/oracle

# Quick pass over every fuzz target (30 s each) — the pre-commit loop.
fuzz-short:
	$(MAKE) fuzz FUZZTIME=30s

# Rewrite the golden snapshots after a deliberate behaviour change.
goldens:
	$(GO) test ./internal/experiments -run TestTableGoldens -update

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
