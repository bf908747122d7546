package experiments_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// TestSuiteSingleflight: concurrent requests for one benchmark must coalesce
// onto a single evaluation (also the -race exercise for the entry map).
func TestSuiteSingleflight(t *testing.T) {
	s := experiments.NewSuite(core.Config{})
	before := vm.RunCount.Load()
	var wg sync.WaitGroup
	evals := make([]*core.Eval, 8)
	for i := range evals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := s.Eval("cmp")
			if err != nil {
				t.Error(err)
				return
			}
			evals[i] = e
		}(i)
	}
	wg.Wait()
	for _, e := range evals[1:] {
		if e != evals[0] {
			t.Fatal("concurrent Eval calls returned distinct evaluations")
		}
	}
	b, err := workloads.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	// One profiling+recording pass, once — not per caller.
	if runs, want := vm.RunCount.Load()-before, int64(len(b.Inputs())); runs != want {
		t.Fatalf("8 concurrent Evals cost %d VM runs, want %d", runs, want)
	}
}

// TestSuiteEvalNames: the pool must honor the workers bound, return results
// in argument order, and report lookup failures.
func TestSuiteEvalNames(t *testing.T) {
	s := experiments.NewSuite(core.Config{})
	s.Workers = 2
	names := []string{"wc", "cmp"}
	evals, err := s.EvalNames(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evals {
		if e.Name != names[i] {
			t.Fatalf("result %d is %q, want %q (argument order)", i, e.Name, names[i])
		}
	}
	if _, err := s.EvalNames(context.Background(), []string{"wc", "no-such-bench"}); err == nil {
		t.Fatal("unknown benchmark did not fail the pool")
	}
}

// TestSuiteEvalNamesErrorNamesBenchmark: a pool failure must say which
// benchmark failed, not just why.
func TestSuiteEvalNamesErrorNamesBenchmark(t *testing.T) {
	s := experiments.NewSuite(core.Config{})
	_, err := s.EvalNames(context.Background(), []string{"cmp", "no-such-bench"})
	if err == nil {
		t.Fatal("unknown benchmark did not fail the pool")
	}
	if !strings.HasPrefix(err.Error(), "no-such-bench: ") {
		t.Fatalf("pool error does not lead with the benchmark name: %v", err)
	}
}

// TestSuiteTelemetry drives concurrent evaluations through the worker pool
// with a shared telemetry set — the race exercise for counters and gauges —
// and checks the suite-level counters and manifests.
func TestSuiteTelemetry(t *testing.T) {
	set := telemetry.New()
	s := experiments.NewSuite(core.Config{
		Schemes:   []string{"sbtb", "cbtb"},
		Telemetry: set,
	})
	s.Workers = 2
	names := []string{"cmp", "wc"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.EvalNames(context.Background(), names); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	snap := set.Snapshot()
	if got := snap.Counters["suite.evals"]; got != int64(len(names)) {
		t.Fatalf("suite.evals = %d, want %d (singleflight must dedupe)", got, len(names))
	}
	if snap.Counters["suite.coalesced"] == 0 {
		t.Fatal("concurrent pools coalesced no evaluations")
	}
	if peak := snap.Gauges["suite.active_workers_peak"]; peak < 1 {
		t.Fatalf("active-worker peak = %d, want >= 1", peak)
	}
	if snap.Counters["suite.bench_wall_ns"] <= 0 {
		t.Fatal("per-benchmark wall time not accumulated")
	}
	for _, name := range names {
		if snap.Counters["scheme.sbtb.hits"]+snap.Counters["scheme.sbtb.misses"] == 0 {
			t.Fatalf("%s: scheme counters missing from suite snapshot", name)
		}
	}

	manifests := s.Manifests()
	if len(manifests) != len(names) {
		t.Fatalf("Manifests() returned %d entries, want %d", len(manifests), len(names))
	}
	for i, m := range manifests {
		if m.Benchmark != names[i] { // names happen to be sorted
			t.Fatalf("manifest %d is %q, want %q", i, m.Benchmark, names[i])
		}
	}
}

func TestSuiteEvalContextCancelled(t *testing.T) {
	s := experiments.NewSuite(core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.EvalContext(ctx, "wc"); err != context.Canceled {
		t.Fatalf("cancelled EvalContext returned %v, want context.Canceled", err)
	}
	if _, err := s.EvalNames(ctx, []string{"wc", "cmp"}); err != context.Canceled {
		t.Fatalf("cancelled EvalNames returned %v, want context.Canceled", err)
	}
}

// TestSuiteWarmCorpusSchedulesNoVM: after one suite warms the corpus, a
// fresh suite (fresh process, in effect) must evaluate benchmarks with zero
// VM execution.
func TestSuiteWarmCorpusSchedulesNoVM(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Corpus: store}
	names := []string{"wc", "cmp"}
	if _, err := experiments.NewSuite(cfg).EvalNames(context.Background(), names); err != nil {
		t.Fatal(err)
	}

	before := vm.RunCount.Load()
	evals, err := experiments.NewSuite(cfg).EvalNames(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evals {
		if !e.FromCorpus {
			t.Fatalf("%s: corpus miss on warm corpus", names[i])
		}
	}
	if runs := vm.RunCount.Load() - before; runs != 0 {
		t.Fatalf("warm-corpus suite evaluation executed the VM %d times, want 0", runs)
	}
}
