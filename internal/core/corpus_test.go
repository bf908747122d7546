package core_test

import (
	"context"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// evalWith evaluates one benchmark and returns the eval plus the VM runs it
// cost.
func evalWith(t *testing.T, name string, cfg core.Config) (*core.Eval, int64) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	before := vm.RunCount.Load()
	e, err := core.EvaluateBenchmark(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, vm.RunCount.Load() - before
}

// TestCorpusWarmMatchesLive: with the default schemes, a warm-corpus
// evaluation must score bit-identically to a live one, flag FromCorpus, and
// execute no VM at all: the Forward Semantic scores from the stored trace
// like the hardware schemes.
func TestCorpusWarmMatchesLive(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	nIn := int64(len(b.Inputs()))

	live, _ := evalWith(t, "wc", core.Config{})

	cold, coldRuns := evalWith(t, "wc", core.Config{Corpus: store})
	if cold.FromCorpus {
		t.Fatal("cold corpus claimed a hit")
	}
	// Cold: the profiling+recording pass only, one run per input.
	if coldRuns != nIn {
		t.Fatalf("cold evaluation cost %d VM runs, want %d", coldRuns, nIn)
	}

	warm, warmRuns := evalWith(t, "wc", core.Config{Corpus: store})
	if !warm.FromCorpus {
		t.Fatal("warm corpus missed")
	}
	if warmRuns != 0 {
		t.Fatalf("warm evaluation cost %d VM runs, want 0", warmRuns)
	}
	for _, name := range warm.Order {
		if warm.Schemes[name].Stats != live.Schemes[name].Stats {
			t.Fatalf("%s: warm stats differ from live:\nwarm %+v\nlive %+v",
				name, warm.Schemes[name].Stats, live.Schemes[name].Stats)
		}
	}
	if warm.Summary != live.Summary || warm.AnalyticFS != live.AnalyticFS {
		t.Fatal("warm profile-derived figures differ from live")
	}
}

// TestCorpusWarmZeroVM: with every registered scheme in the set, a cold
// evaluation runs the VM once per input and a warm-corpus evaluation not at
// all — the acceptance criterion for the suite-level scheduler.
func TestCorpusWarmZeroVM(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Corpus: store, Schemes: predict.Names()}
	b, err := workloads.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, coldRuns := evalWith(t, "cmp", cfg); coldRuns != int64(len(b.Inputs())) {
		t.Fatalf("cold evaluation executed the VM %d times, want %d", coldRuns, len(b.Inputs()))
	}

	warm, warmRuns := evalWith(t, "cmp", cfg)
	if !warm.FromCorpus {
		t.Fatal("warm corpus missed")
	}
	if warmRuns != 0 {
		t.Fatalf("warm evaluation executed the VM %d times, want 0", warmRuns)
	}
}

func TestEvaluateBenchmarkContextCancelled(t *testing.T) {
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.EvaluateBenchmarkContext(ctx, b, core.Config{}); err != context.Canceled {
		t.Fatalf("cancelled evaluation returned %v, want context.Canceled", err)
	}
}
