// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1–5, Figures 3–4, and the introduction's
// headline comparison), plus the ablations DESIGN.md calls out. Each
// experiment returns typed rows for tests and renders to plain text for the
// cmd/branchsim harness and EXPERIMENTS.md.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// Suite caches per-benchmark evaluations so that the tables sharing data
// (3 and 4, the figures, the headline) measure once. Concurrent requests
// for the same benchmark coalesce onto one evaluation (singleflight), and
// suite-wide fan-out runs through a worker pool bounded by Workers — the
// suite-level scheduler: with Cfg.Corpus warm, a full Tables/Headline pass
// schedules only replays.
type Suite struct {
	Cfg core.Config

	// Workers bounds how many benchmarks evaluate concurrently in EvalNames
	// and Warm; 0 means GOMAXPROCS.
	Workers int

	// Deadline, when positive, bounds each benchmark's evaluation wall clock.
	// It is applied when the evaluation starts executing — not while it waits
	// for a pool slot — so a saturated pool does not eat the budget. A
	// benchmark that blows its deadline fails with context.DeadlineExceeded
	// (phase "deadline"); with Cfg.MaxVMSteps also set, whichever trips first
	// kills a hung workload.
	Deadline time.Duration

	// Retries is how many extra attempts a transient corpus I/O failure earns
	// before the benchmark is declared failed; 0 disables retry. Only
	// corpus.IsTransient errors retry — corruption heals inside core, and
	// deterministic failures (lookup, VM traps, deadlines) would only fail
	// again.
	Retries int

	// RetryBackoff is the base delay of the exponential backoff between retry
	// attempts (doubled each attempt, jittered ±50%); 0 means 50ms.
	RetryBackoff time.Duration

	// RetrySeed, when nonzero, makes the backoff jitter draw from a private
	// source seeded with it instead of the global math/rand stream — the
	// same suite configuration then produces the same retry schedule, which
	// is what makes chaos runs replayable from a seed. Zero keeps the global
	// source (the default, unchanged).
	RetrySeed int64

	// Lookup resolves a benchmark name; nil means workloads.ByName. Tests
	// inject synthetic workloads (a hung loop, a poisoned input) here.
	Lookup func(name string) (*workloads.Benchmark, error)

	mu       sync.Mutex
	evals    map[string]*suiteEntry
	failures map[string]*BenchError

	jmu   sync.Mutex
	jrand *rand.Rand // lazily seeded from RetrySeed; nil = global source
}

// suiteEntry is one benchmark's in-flight or completed evaluation.
type suiteEntry struct {
	done     chan struct{}
	e        *core.Eval
	err      error
	attempts int
}

// NewSuite returns a suite with the given configuration (zero = paper).
func NewSuite(cfg core.Config) *Suite {
	return &Suite{Cfg: cfg, evals: map[string]*suiteEntry{}, failures: map[string]*BenchError{}}
}

// BenchError is one benchmark's failure inside a suite run: which benchmark,
// which pipeline phase gave out ("lookup", "corpus", "deadline", "vm",
// "cancelled", "evaluate"), and after how many attempts. Unwrap exposes the
// cause, so errors.Is(err, context.DeadlineExceeded) and the corpus
// predicates keep working through it.
type BenchError struct {
	Benchmark string
	Phase     string
	Attempts  int
	Err       error
}

func (e *BenchError) Error() string {
	return fmt.Sprintf("%s: %v (phase %s, %d attempt(s))", e.Benchmark, e.Err, e.Phase, e.Attempts)
}

func (e *BenchError) Unwrap() error { return e.Err }

// MarshalJSON renders the cause as its message, so failures survive into the
// -metrics manifest report instead of serializing as an empty object.
func (e *BenchError) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Benchmark string `json:"benchmark"`
		Phase     string `json:"phase"`
		Attempts  int    `json:"attempts"`
		Cause     string `json:"cause"`
	}{e.Benchmark, e.Phase, e.Attempts, fmt.Sprint(e.Err)})
}

// ErrEvalPanic marks a benchmark evaluation that panicked. The suite
// converts the panic into this error (phase "panic") instead of letting it
// unwind the worker — one poisoned workload or corrupted structure must
// never take down a long-running daemon, and the singleflight entry must
// still resolve so coalesced waiters are released.
var ErrEvalPanic = errors.New("evaluation panicked")

// ClassifyPhase maps a benchmark failure to the pipeline phase that caused
// it ("panic", "deadline", "cancelled", "corpus", "vm", "evaluate"), walking
// the error chain so wrapped causes still classify. Exported for callers —
// the evaluation daemon — that type errors the suite did not wrap itself.
func ClassifyPhase(err error) string { return classifyPhase(err) }

// classifyPhase maps a benchmark failure to the pipeline phase that caused
// it, walking the error chain so wrapped causes still classify.
func classifyPhase(err error) string {
	switch {
	case errors.Is(err, ErrEvalPanic):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case corpus.IsTransient(err) || corpus.IsCorrupt(err) || corpus.IsMiss(err):
		return "corpus"
	case errors.Is(err, vm.ErrMaxSteps):
		return "vm"
	default:
		return "evaluate"
	}
}

// lookup resolves a benchmark through the injected Lookup or the registry.
func (s *Suite) lookup(name string) (*workloads.Benchmark, error) {
	if s.Lookup != nil {
		return s.Lookup(name)
	}
	return workloads.ByName(name)
}

// Backoff returns the jittered exponential delay before retry attempt n
// (n = 1 for the first retry). With RetrySeed set the draws come from a
// private seeded stream, so the schedule is a deterministic function of
// (RetrySeed, call sequence) — exported so chaos tests can assert it.
func (s *Suite) Backoff(n int) time.Duration {
	base := s.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(n-1)
	// ±50% jitter decorrelates retry storms across workers.
	return d/2 + time.Duration(s.jitter(int64(d)+1))
}

// jitter draws a uniform value in [0, n) from the seeded source when
// RetrySeed is set, else from the global math/rand stream.
func (s *Suite) jitter(n int64) int64 {
	if s.RetrySeed == 0 {
		return rand.Int63n(n)
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jrand == nil {
		s.jrand = rand.New(rand.NewSource(s.RetrySeed))
	}
	return s.jrand.Int63n(n)
}

// evalOne runs one benchmark's full evaluation: resolve it, then attempt
// under the per-benchmark deadline, retrying with backoff as long as the
// failure is a transient corpus I/O error and the retry budget lasts. On
// failure it reports the phase that gave out and how many attempts it made.
func (s *Suite) evalOne(ctx context.Context, set *telemetry.Set, name string) (e *core.Eval, attempts int, phase string, err error) {
	b, err := s.lookup(name)
	if err != nil {
		return nil, 1, "lookup", err
	}
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if s.Deadline > 0 {
			actx, cancel = context.WithTimeout(ctx, s.Deadline)
		}
		e, err := s.evalAttempt(actx, set, b)
		cancel()
		if err == nil {
			return e, attempt, "", nil
		}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			set.Counter("suite.deadlines").Inc()
		}
		if attempt > s.Retries || !corpus.IsTransient(err) || ctx.Err() != nil {
			return nil, attempt, classifyPhase(err), err
		}
		set.Counter("suite.retries").Inc()
		delay := s.Backoff(attempt)
		telemetry.Logger(ctx).Warn("suite: transient corpus failure, retrying",
			"benchmark", name, "attempt", attempt, "backoff", delay, "err", err)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, attempt, classifyPhase(ctx.Err()), ctx.Err()
		}
	}
}

// evalAttempt runs one panic-isolated evaluation attempt. A panic anywhere
// in the pipeline (a poisoned input generator, a scheme whose state was
// corrupted by a bad entry) becomes an ErrEvalPanic failure, and — since the
// most likely external cause is a damaged corpus entry feeding the replay —
// the benchmark's entry is quarantined best-effort so the next attempt
// re-records from scratch instead of re-crashing on the same bytes.
func (s *Suite) evalAttempt(ctx context.Context, set *telemetry.Set, b *workloads.Benchmark) (e *core.Eval, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("%w: %v", ErrEvalPanic, r)
			set.Counter("suite.panics").Inc()
			telemetry.Logger(ctx).Error("suite: evaluation panicked",
				"benchmark", b.Name, "panic", fmt.Sprint(r))
			s.quarantineAfterPanic(ctx, b)
		}
	}()
	return core.EvaluateBenchmarkContext(ctx, b, s.Cfg)
}

// quarantineAfterPanic moves the panicking benchmark's corpus entry aside,
// best-effort: computing the key re-runs the benchmark's program build and
// input generators, either of which may be the very thing that panicked, so
// the whole attempt is fenced by its own recover.
func (s *Suite) quarantineAfterPanic(ctx context.Context, b *workloads.Benchmark) {
	if s.Cfg.Corpus == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			telemetry.Logger(ctx).Warn("suite: post-panic quarantine itself panicked, skipped",
				"benchmark", b.Name, "panic", fmt.Sprint(r))
		}
	}()
	prog, err := b.Program()
	if err != nil {
		return
	}
	k := corpus.KeyFor(b.Name, prog, b.Inputs())
	if err := s.Cfg.Corpus.QuarantineContext(ctx, k); err != nil {
		telemetry.Logger(ctx).Warn("suite: post-panic quarantine failed",
			"benchmark", b.Name, "err", err)
	}
}

// telem resolves the set the suite reports into: one already on the context
// wins; otherwise the configured Cfg.Telemetry is attached to the context so
// the whole evaluation stack below sees it.
func (s *Suite) telem(ctx context.Context) (*telemetry.Set, context.Context) {
	if set := telemetry.FromContext(ctx); set != nil {
		return set, ctx
	}
	if s.Cfg.Telemetry != nil {
		return s.Cfg.Telemetry, telemetry.NewContext(ctx, s.Cfg.Telemetry)
	}
	return nil, ctx
}

// Eval returns the (cached) evaluation of the named benchmark.
func (s *Suite) Eval(name string) (*core.Eval, error) {
	return s.EvalContext(context.Background(), name)
}

// EvalContext is Eval with cancellation. The first caller for a name runs
// the evaluation (under the suite's deadline and retry policy); concurrent
// callers wait on its result (or their own context). A failed evaluation is
// not cached, so a later call retries from scratch; its BenchError is kept
// in Failures() until a success supersedes it.
func (s *Suite) EvalContext(ctx context.Context, name string) (*core.Eval, error) {
	set, ctx := s.telem(ctx)
	s.mu.Lock()
	ent, ok := s.evals[name]
	if !ok {
		ent = &suiteEntry{done: make(chan struct{})}
		s.evals[name] = ent
		s.mu.Unlock()
		set.Counter("suite.evals").Inc()
		start := time.Now()
		var phase string
		ent.e, ent.attempts, phase, ent.err = s.evalOne(ctx, set, name)
		if ent.err != nil {
			set.Counter("suite.failures").Inc()
			s.mu.Lock()
			delete(s.evals, name)
			s.failures[name] = &BenchError{
				Benchmark: name, Phase: phase, Attempts: ent.attempts, Err: ent.err,
			}
			s.mu.Unlock()
			telemetry.Logger(ctx).Warn("suite: benchmark failed",
				"benchmark", name, "phase", phase,
				"attempts", ent.attempts, "err", ent.err)
		} else {
			s.mu.Lock()
			delete(s.failures, name)
			s.mu.Unlock()
			wall := time.Since(start).Nanoseconds()
			set.Counter("suite.bench_wall_ns").Add(wall)
			telemetry.Logger(ctx).Debug("suite: benchmark evaluated",
				"benchmark", name, "wall_ns", wall,
				"from_corpus", ent.e.FromCorpus, "vm_runs", ent.e.VMRuns)
		}
		close(ent.done)
		return ent.e, ent.err
	}
	s.mu.Unlock()
	// Another caller already owns this benchmark: coalesce onto its result.
	set.Counter("suite.coalesced").Inc()
	select {
	case <-ent.done:
		return ent.e, ent.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Partial is the degrade-don't-die result of a suite fan-out: every
// benchmark that completed (aligned with the requested names, nil at failed
// slots) plus a structured error per benchmark that did not. A hung workload
// or an unreadable corpus entry costs its own slot, never the whole run.
type Partial struct {
	Names  []string     // the requested names, in argument order
	Evals  []*core.Eval // aligned with Names; nil where the benchmark failed
	Errors []*BenchError
}

// Complete returns the evaluations that succeeded, in request order.
func (p *Partial) Complete() []*core.Eval {
	var out []*core.Eval
	for _, e := range p.Evals {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Err joins every benchmark failure into one error (nil when all completed).
func (p *Partial) Err() error {
	errs := make([]error, len(p.Errors))
	for i, be := range p.Errors {
		errs[i] = be
	}
	return errors.Join(errs...)
}

// EvalNamesPartial evaluates the named benchmarks through the bounded worker
// pool and keeps going past failures: the result carries every completed
// evaluation plus a BenchError (phase + attempt count) for each benchmark
// that failed. This is the -partial mode of the CLIs.
func (s *Suite) EvalNamesPartial(ctx context.Context, names []string) *Partial {
	set, ctx := s.telem(ctx)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	// Queue depth counts benchmarks waiting on a pool slot; active workers
	// (with a peak high-water mark) counts slots in use.
	queue := set.Gauge("suite.queue_depth")
	active := set.Gauge("suite.active_workers")
	peak := set.Gauge("suite.active_workers_peak")
	p := &Partial{Names: names, Evals: make([]*core.Eval, len(names))}
	errs := make([]*BenchError, len(names))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		queue.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			queue.Add(-1)
			active.Add(1)
			peak.RecordMax(active.Value())
			defer func() {
				active.Add(-1)
				<-sem
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = &BenchError{
					Benchmark: name, Phase: classifyPhase(err), Attempts: 0, Err: err,
				}
				return
			}
			e, err := s.EvalContext(ctx, name)
			if err != nil {
				errs[i] = s.benchError(name, err)
				return
			}
			p.Evals[i] = e
		}(i, name)
	}
	wg.Wait()
	for _, be := range errs {
		if be != nil {
			p.Errors = append(p.Errors, be)
		}
	}
	return p
}

// benchError resolves a benchmark failure to its recorded BenchError (which
// knows the phase and attempt count from the singleflight owner), falling
// back to classifying the error itself when the failure happened on the
// caller's side (e.g. its own context died while coalesced).
func (s *Suite) benchError(name string, err error) *BenchError {
	s.mu.Lock()
	be := s.failures[name]
	s.mu.Unlock()
	if be != nil && errors.Is(err, be.Err) {
		return be
	}
	return &BenchError{Benchmark: name, Phase: classifyPhase(err), Attempts: 1, Err: err}
}

// EvalNames evaluates the named benchmarks through the bounded worker pool
// and returns them in argument order. Unlike a fail-fast pool, it continues
// through the whole list and joins every failure (each led by its benchmark
// name) into the returned error, so one bad benchmark still reports all of
// them. Caller-context cancellation is returned as-is.
func (s *Suite) EvalNames(ctx context.Context, names []string) ([]*core.Eval, error) {
	p := s.EvalNamesPartial(ctx, names)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return p.Evals, nil
}

// Failures returns the most recent BenchError of every benchmark whose last
// evaluation failed (and has not since succeeded), sorted by benchmark name.
func (s *Suite) Failures() []*BenchError {
	s.mu.Lock()
	out := make([]*BenchError, 0, len(s.failures))
	for _, be := range s.failures {
		out = append(out, be)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// Manifests returns the run manifests of every completed, successful
// evaluation in the suite's cache, sorted by benchmark name — the payload of
// a suite-level -metrics report.
func (s *Suite) Manifests() []*core.Manifest {
	s.mu.Lock()
	entries := make(map[string]*suiteEntry, len(s.evals))
	for name, ent := range s.evals {
		entries[name] = ent
	}
	s.mu.Unlock()
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*core.Manifest
	for _, name := range names {
		ent := entries[name]
		select {
		case <-ent.done:
			if ent.err == nil {
				out = append(out, ent.e.Manifest())
			}
		default: // still in flight
		}
	}
	return out
}

// Warm records-or-loads every registered benchmark — the paper's twelve
// (Table-5-only ones included) and the modern workload classes — through the
// worker pool. With Cfg.Corpus set, a cold corpus is fully populated by one
// Warm call and every later suite evaluation — this process or the next —
// replays from disk.
func (s *Suite) Warm(ctx context.Context) error {
	var names []string
	for _, b := range workloads.Everything() {
		names = append(names, b.Name)
	}
	_, err := s.EvalNames(ctx, names)
	return err
}

// EvalPrimary evaluates the ten primary benchmarks (in parallel, bounded by
// Workers) and returns them in the paper's table order.
func (s *Suite) EvalPrimary() ([]*core.Eval, error) {
	return s.EvalPrimaryContext(context.Background())
}

// EvalPrimaryContext is EvalPrimary with cancellation.
func (s *Suite) EvalPrimaryContext(ctx context.Context) ([]*core.Eval, error) {
	var names []string
	for _, b := range workloads.Primary() {
		names = append(names, b.Name)
	}
	return s.EvalNames(ctx, names)
}

// AverageAccuracies returns the suite-average A_SBTB, A_CBTB and A_FS used
// by the figures and the headline (matching the paper's use of Table 3
// averages).
func (s *Suite) AverageAccuracies() (aSBTB, aCBTB, aFS float64, err error) {
	evals, err := s.EvalPrimary()
	if err != nil {
		return 0, 0, 0, err
	}
	n := float64(len(evals))
	for _, e := range evals {
		aSBTB += e.SBTB().Stats.Accuracy()
		aCBTB += e.CBTB().Stats.Accuracy()
		aFS += e.FS().Stats.Accuracy()
	}
	return aSBTB / n, aCBTB / n, aFS / n, nil
}

// newScheme constructs a registered scheme's predictor against one cached
// evaluation's program and profile.
func newScheme(name string, e *core.Eval, configs predict.ConfigSet) predict.Predictor {
	return predict.MustLookup(name).New(predict.SchemeContext{
		Prog: e.Program, Profile: e.Profile, Configs: configs,
	})
}
