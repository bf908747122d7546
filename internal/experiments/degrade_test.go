package experiments_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/faultfs"
	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// hungBenchmark is a synthetic workload that never halts — the hung-suite
// member of the degrade-don't-die acceptance test. Only the per-benchmark
// deadline (vm.Config.Ctx polling) can kill it.
func hungBenchmark() *workloads.Benchmark {
	return &workloads.Benchmark{
		Name: "hung",
		Runs: 1,
		Sources: []string{`
func main() {
	var i;
	i = 0;
	while (i < 1) {
		i = i * 1;
	}
	return 0;
}
`},
		Input: func(int) []byte { return nil },
	}
}

// TestSuiteDegradeDontDie is the suite-level acceptance test: a fan-out over
// N benchmarks where one hangs forever and one has a permanently unreadable
// corpus entry must complete the other N−2, within the deadline, and report
// both failures with their phase and attempt counts — not abort the run.
func TestSuiteDegradeDontDie(t *testing.T) {
	if testing.Short() {
		// The healthy benchmarks must beat a real wall-clock deadline, which
		// a loaded race-instrumented tier-1 run can't guarantee; make chaos
		// runs this under -race without -short, standalone.
		t.Skip("deadline-bound acceptance test; run via make chaos")
	}
	dir := t.TempDir()
	// Every open of grep's entry files fails: a persistently unreadable
	// (transient-class) entry that exhausts the retry budget.
	inj := faultfs.NewInjector(nil, faultfs.Plan{Seed: 7, FailOpenAt: 1, EveryOpen: true, PathContains: "grep-"})
	store, err := corpus.OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.New()
	s := experiments.NewSuite(core.Config{
		Corpus:    store,
		Schemes:   []string{"sbtb", "cbtb"},
		Telemetry: set,
	})
	s.Workers = 4
	s.Deadline = 5 * time.Second
	s.Retries = 2
	s.RetryBackoff = time.Millisecond
	s.Lookup = func(name string) (*workloads.Benchmark, error) {
		if name == "hung" {
			return hungBenchmark(), nil
		}
		return workloads.ByName(name)
	}

	names := []string{"wc", "cmp", "hung", "grep"}
	start := time.Now()
	p := s.EvalNamesPartial(context.Background(), names)
	elapsed := time.Since(start)

	// The healthy N−2 completed, in their argument slots.
	if got := len(p.Complete()); got != 2 {
		t.Fatalf("%d benchmarks completed, want 2 (errors: %v)", got, p.Errors)
	}
	if p.Evals[0] == nil || p.Evals[0].Name != "wc" || p.Evals[1] == nil || p.Evals[1].Name != "cmp" {
		t.Fatalf("surviving evaluations misplaced: %+v", p.Evals)
	}
	if p.Evals[2] != nil || p.Evals[3] != nil {
		t.Fatal("failed benchmarks produced evaluations")
	}
	// Degrading, not dying, also means not stalling: the whole run is bounded
	// by roughly one deadline, not N of them serially.
	if elapsed > 3*s.Deadline {
		t.Fatalf("partial run took %v, want bounded by the deadline (%v)", elapsed, s.Deadline)
	}

	// Both failures are structured: benchmark, phase, attempts, cause.
	byName := map[string]*experiments.BenchError{}
	for _, be := range p.Errors {
		byName[be.Benchmark] = be
	}
	if len(byName) != 2 {
		t.Fatalf("reported failures %v, want hung and grep", p.Errors)
	}
	hung := byName["hung"]
	if hung == nil || hung.Phase != "deadline" || hung.Attempts != 1 {
		t.Fatalf("hung failure = %+v, want phase deadline after 1 attempt", hung)
	}
	if !errors.Is(hung, context.DeadlineExceeded) {
		t.Fatalf("hung cause %v does not unwrap to DeadlineExceeded", hung)
	}
	grep := byName["grep"]
	if grep == nil || grep.Phase != "corpus" || grep.Attempts != s.Retries+1 {
		t.Fatalf("grep failure = %+v, want phase corpus after %d attempts", grep, s.Retries+1)
	}
	if !corpus.IsTransient(grep) {
		t.Fatalf("grep cause %v is not transient", grep)
	}

	// Scheduler telemetry saw the retries, the failures, and the deadline.
	snap := set.Snapshot().Counters
	if snap["suite.retries"] != int64(s.Retries) {
		t.Fatalf("suite.retries = %d, want %d", snap["suite.retries"], s.Retries)
	}
	if snap["suite.failures"] != 2 || snap["suite.deadlines"] != 1 {
		t.Fatalf("failures=%d deadlines=%d, want 2/1 (snapshot %v)",
			snap["suite.failures"], snap["suite.deadlines"], snap)
	}

	// Failures() keeps the record; Manifests() carries only the survivors.
	fails := s.Failures()
	if len(fails) != 2 || fails[0].Benchmark != "grep" || fails[1].Benchmark != "hung" {
		t.Fatalf("Failures() = %v, want [grep hung]", fails)
	}
	if ms := s.Manifests(); len(ms) != 2 {
		t.Fatalf("Manifests() returned %d entries, want 2", len(ms))
	}

	// The joined error names every failed benchmark.
	msg := p.Err().Error()
	if !strings.Contains(msg, "hung") || !strings.Contains(msg, "grep") {
		t.Fatalf("joined error %q does not name both failures", msg)
	}
}

// TestSuiteEvalNamesContinuesPastFailure: EvalNames must evaluate the whole
// list even when an early name fails, and join every failure rather than
// stopping at the first.
func TestSuiteEvalNamesContinuesPastFailure(t *testing.T) {
	set := telemetry.New()
	s := experiments.NewSuite(core.Config{Telemetry: set})
	s.Workers = 1 // serial: the failing names come first
	_, err := s.EvalNames(context.Background(), []string{"no-such-a", "no-such-b", "wc"})
	if err == nil {
		t.Fatal("unknown benchmarks did not fail the pool")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no-such-a") || !strings.Contains(msg, "no-such-b") {
		t.Fatalf("joined error %q does not name every failure", msg)
	}
	// wc still evaluated despite the earlier failures.
	if got := set.Snapshot().Counters["suite.evals"]; got != 3 {
		t.Fatalf("suite.evals = %d, want 3 (the pool must not stop early)", got)
	}
	if ms := s.Manifests(); len(ms) != 1 || ms[0].Benchmark != "wc" {
		t.Fatalf("wc did not complete: manifests %v", ms)
	}
	// A BenchError in the chain carries the lookup phase.
	var be *experiments.BenchError
	if !errors.As(err, &be) || be.Phase != "lookup" {
		t.Fatalf("joined error lacks a lookup-phase BenchError: %v", err)
	}
}

// TestSuiteBackoffSeededDeterminism: with RetrySeed set, the jittered retry
// schedule must be a pure function of the seed — two identically seeded
// suites produce identical schedules, different seeds diverge, and every
// delay stays inside the documented ±50% jitter envelope. Without a seed the
// draws come from the global stream (the pre-existing default), which two
// suites must not share deterministically.
func TestSuiteBackoffSeededDeterminism(t *testing.T) {
	mk := func(seed int64) *experiments.Suite {
		s := experiments.NewSuite(core.Config{})
		s.RetryBackoff = 10 * time.Millisecond
		s.RetrySeed = seed
		return s
	}
	schedule := func(s *experiments.Suite) []time.Duration {
		var out []time.Duration
		for n := 1; n <= 6; n++ {
			out = append(out, s.Backoff(n))
		}
		return out
	}
	a, b := schedule(mk(42)), schedule(mk(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 schedules diverge at retry %d: %v vs %v", i+1, a, b)
		}
		base := 10 * time.Millisecond << uint(i)
		if a[i] < base/2 || a[i] > base+base/2 {
			t.Fatalf("retry %d delay %v outside jitter envelope [%v, %v]",
				i+1, a[i], base/2, base+base/2)
		}
	}
	c := schedule(mk(7))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 7 produced identical schedules: %v", a)
	}
}

// TestSuitePanicIsolated: a benchmark whose evaluation panics must fail with
// phase "panic" (cause unwrapping to ErrEvalPanic) and release coalesced
// waiters — never unwind the worker — and the suite must stay usable for
// the next request.
func TestSuitePanicIsolated(t *testing.T) {
	set := telemetry.New()
	s := experiments.NewSuite(core.Config{Telemetry: set})
	s.Lookup = func(name string) (*workloads.Benchmark, error) {
		if name == "poisoned" {
			return &workloads.Benchmark{
				Name:    "poisoned",
				Runs:    1,
				Sources: []string{`func main() { return 0; }`},
				Input:   func(int) []byte { panic("poisoned input generator") },
			}, nil
		}
		return workloads.ByName(name)
	}
	_, err := s.EvalContext(context.Background(), "poisoned")
	if !errors.Is(err, experiments.ErrEvalPanic) {
		t.Fatalf("panicking evaluation returned %v, want ErrEvalPanic", err)
	}
	fails := s.Failures()
	if len(fails) != 1 || fails[0].Phase != "panic" {
		t.Fatalf("Failures() = %v, want one phase-panic entry", fails)
	}
	if got := set.Snapshot().Counters["suite.panics"]; got != 1 {
		t.Fatalf("suite.panics = %d, want 1", got)
	}
	// The suite survived: a healthy benchmark still evaluates.
	if _, err := s.EvalContext(context.Background(), "wc"); err != nil {
		t.Fatalf("suite unusable after a panic: %v", err)
	}
}

// replayPanic is a context-free scheme that panics on its first prediction,
// standing in for a predictor whose state a bad corpus entry corrupted.
type replayPanic struct{}

func (replayPanic) Name() string                              { return "replay-panic" }
func (replayPanic) Predict(vm.BranchEvent) predict.Prediction { panic("replay-panic: corrupted state") }
func (replayPanic) Update(vm.BranchEvent)                     {}
func (replayPanic) Reset()                                    {}

func init() {
	predict.Register(predict.Scheme{
		Name:        "replay-panic",
		Description: "test scheme that panics during replay",
		New:         func(predict.SchemeContext) predict.Predictor { return replayPanic{} },
	})
}

// TestSuiteReplayPanicIsolated: a scheme panicking on a replay worker, not
// on the evaluation's own goroutine, still reaches the suite's recover fence
// and fails the benchmark with ErrEvalPanic instead of killing the process.
func TestSuiteReplayPanicIsolated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two schemes, two replay workers
	s := experiments.NewSuite(core.Config{Schemes: []string{"sbtb", "replay-panic"}})
	if _, err := s.EvalContext(context.Background(), "wc"); !errors.Is(err, experiments.ErrEvalPanic) {
		t.Fatalf("replay panic returned %v, want ErrEvalPanic", err)
	}
	if fails := s.Failures(); len(fails) != 1 || fails[0].Phase != "panic" {
		t.Fatalf("Failures() = %v, want one phase-panic entry", fails)
	}
}

// TestSuitePartialConcurrentIdentical: N concurrent identical EvalNamesPartial
// fan-outs over a suite with one persistently failing benchmark. Singleflight
// followers must see the same structured BenchError (phase and attempt count)
// the owner recorded — not a locally reclassified one — every successful slot
// must carry the same cached evaluation, and Failures() must order
// deterministically.
func TestSuitePartialConcurrentIdentical(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, faultfs.Plan{FailOpenAt: 1, EveryOpen: true, PathContains: "grep-"})
	store, err := corpus.OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(core.Config{Corpus: store, Schemes: []string{"sbtb"}})
	s.Workers = 4
	s.Retries = 2
	s.RetryBackoff = time.Millisecond
	s.RetrySeed = 1

	const callers = 6
	names := []string{"wc", "grep", "cmp"}
	results := make([]*experiments.Partial, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.EvalNamesPartial(context.Background(), names)
		}(i)
	}
	wg.Wait()

	for i, p := range results {
		if len(p.Errors) != 1 {
			t.Fatalf("caller %d: %d errors, want exactly 1 (grep): %v", i, len(p.Errors), p.Errors)
		}
		be := p.Errors[0]
		if be.Benchmark != "grep" || be.Phase != "corpus" {
			t.Fatalf("caller %d: failure %+v, want grep/corpus", i, be)
		}
		// The owner ran Retries+1 attempts; followers must report the same
		// count, not their own. (Callers racing ahead of the owner's failure
		// record re-run the eval and legitimately become owners themselves —
		// but every owner exhausts the same retry budget, so the attempt
		// count is identical either way.)
		if be.Attempts != s.Retries+1 {
			t.Fatalf("caller %d: attempts = %d, want %d", i, be.Attempts, s.Retries+1)
		}
		if !corpus.IsTransient(be) {
			t.Fatalf("caller %d: cause %v is not transient", i, be.Err)
		}
		if p.Evals[0] == nil || p.Evals[0].Name != "wc" || p.Evals[2] == nil || p.Evals[2].Name != "cmp" {
			t.Fatalf("caller %d: surviving evals misplaced: %v", i, p.Evals)
		}
		// Successful slots coalesced onto the same cached evaluations.
		if i > 0 {
			if p.Evals[0] != results[0].Evals[0] || p.Evals[2] != results[0].Evals[2] {
				t.Fatalf("caller %d did not share the singleflight evaluations", i)
			}
		}
	}
	// Failures() is deterministic: sorted by benchmark, one record.
	f1, f2 := s.Failures(), s.Failures()
	if len(f1) != 1 || f1[0].Benchmark != "grep" {
		t.Fatalf("Failures() = %v, want [grep]", f1)
	}
	if len(f2) != len(f1) || f1[0] != f2[0] {
		t.Fatalf("Failures() not stable across calls: %v vs %v", f1, f2)
	}
}

// TestSuiteRetryHealsTransientFault: a one-shot I/O fault must cost one
// retry, then succeed — the bounded-backoff path's happy ending.
func TestSuiteRetryHealsTransientFault(t *testing.T) {
	dir := t.TempDir()
	warm, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the entry cleanly first.
	if _, err := experiments.NewSuite(core.Config{Corpus: warm}).EvalContext(context.Background(), "wc"); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.NewInjector(nil, faultfs.Plan{FailOpenAt: 1, PathContains: "wc-"})
	store, err := corpus.OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.New()
	s := experiments.NewSuite(core.Config{Corpus: store, Telemetry: set})
	s.Retries = 3
	s.RetryBackoff = time.Millisecond
	e, err := s.EvalContext(context.Background(), "wc")
	if err != nil {
		t.Fatalf("one-shot fault was not retried away: %v", err)
	}
	if !e.FromCorpus {
		t.Fatal("retried evaluation did not hit the corpus")
	}
	if got := set.Snapshot().Counters["suite.retries"]; got != 1 {
		t.Fatalf("suite.retries = %d, want 1", got)
	}
	if len(s.Failures()) != 0 {
		t.Fatalf("successful retry left failures: %v", s.Failures())
	}
}
