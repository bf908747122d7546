package experiments_test

import (
	"context"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// benchNames keeps the benchmark wall-clock bounded while still covering
// two different programs and input suites.
var benchNames = []string{"wc", "compress"}

// BenchmarkSizeSweepReplay measures the engine's sweep path: each
// benchmark's trace is recorded once (warmed before the timer, as the suite
// cache amortizes it across every sweep), and all fourteen BTB geometries
// score by parallel replay — no VM execution inside the loop. Predictor
// work common to both paths dominates this sweep, so the win over reexec
// scales with the cores available to the replay engine (single-core hosts
// see parity); the flush-sweep pair below shows the engine's structural win.
func BenchmarkSizeSweepReplay(b *testing.B) {
	s := experiments.NewSuite(core.Config{})
	for _, n := range benchNames {
		if _, err := s.Eval(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.SizeSweep(s, benchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSwitchReplay measures the flush sweep on the engine: the
// suite evaluates each benchmark once (warmed before the timer), then every
// flush period replays the cached trace through fresh BTBs.
func BenchmarkContextSwitchReplay(b *testing.B) {
	s := experiments.NewSuite(core.Config{})
	for _, n := range benchNames {
		if _, err := s.Eval(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ContextSwitch(s, benchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSwitchReexec measures the flush sweep the pre-refactor
// way: a fresh full evaluation — profile pass, transform, scoring — of
// every benchmark at every flush period. Replay skips everything but
// the two flushed BTBs per period (~5x on one core, more with several).
func BenchmarkContextSwitchReexec(b *testing.B) {
	periods := []int64{0, 100000, 10000, 1000}
	for i := 0; i < b.N; i++ {
		for _, p := range periods {
			for _, name := range benchNames {
				bm, err := workloads.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.EvaluateBenchmark(bm, core.Config{FlushEvery: p}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSuiteCorpusReplay measures a suite evaluation against a warm
// corpus (populated before the timer): every iteration builds a fresh Suite
// — no in-memory cache — and performs no VM execution: every scheme replays
// BCT2 traces from disk. Compare with BenchmarkSuiteLiveReexec for the
// `make corpus-bench` pair.
func BenchmarkSuiteCorpusReplay(b *testing.B) {
	store, err := corpus.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Corpus: store}
	if _, err := experiments.NewSuite(cfg).EvalNames(context.Background(), benchNames); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := vm.RunCount.Load()
		s := experiments.NewSuite(cfg)
		evals, err := s.EvalNames(context.Background(), benchNames)
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range evals {
			if !e.FromCorpus {
				b.Fatalf("%s: corpus miss on warm corpus", benchNames[j])
			}
		}
		b.ReportMetric(float64(vm.RunCount.Load()-before)/float64(len(benchNames)), "vmruns/bench")
	}
}

// BenchmarkSuiteLiveReexec measures the same suite evaluation with no
// corpus: every iteration records the traces by live VM execution, the
// pre-corpus cost of a cold process start.
func BenchmarkSuiteLiveReexec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(core.Config{})
		if _, err := s.EvalNames(context.Background(), benchNames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeSweepReexec measures the pre-refactor methodology for the
// same sweep: re-execute every benchmark under the VM with all fourteen
// geometries multiplexed onto the live branch stream. Programs are compiled
// before the timer so both benchmarks compare pure measurement cost.
func BenchmarkSizeSweepReexec(b *testing.B) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	type bench struct {
		bm   *workloads.Benchmark
		prog *isa.Program
	}
	var benches []bench
	for _, name := range benchNames {
		bm, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := bm.Program()
		if err != nil {
			b.Fatal(err)
		}
		benches = append(benches, bench{bm, prog})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bb := range benches {
			var evs []*predict.Evaluator
			for _, n := range sizes {
				evs = append(evs,
					&predict.Evaluator{P: btb.NewSBTB(n, n)},
					&predict.Evaluator{P: btb.NewCBTB(n, n, 2, 2)})
			}
			hook := func(ev vm.BranchEvent) {
				for _, e := range evs {
					e.Observe(ev)
				}
			}
			for run := 0; run < bb.bm.Runs; run++ {
				if _, err := vm.Run(bb.prog, bb.bm.Input(run), hook, vm.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
