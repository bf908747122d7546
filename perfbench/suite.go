package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/workloads"
)

// Seconds of --seconds each pass stands for; --seconds divided by these
// gives a run's fixed pass count. suite-warm's is its pass length on the
// 2-vCPU host the benchmark was defined on; record-cold's (5 s passes) and
// daemon-upload's (7 s sweeps) are larger, so that the three workloads'
// runs, with set-up and output checks, fit the benchmark's time budget.
const (
	warmPassS = 13.0
	coldPassS = 8.0
)

// warmCorpus is suite-warm's set-up product: compiled benchmarks serving
// pre-generated inputs, and a corpus holding each one's recorded trace.
type warmCorpus struct {
	benches map[string]*workloads.Benchmark
	store   *corpus.Store
	dir     string
}

// forEach runs fn over the frozen benchmarks on a fixed pool of workers,
// returning the first error.
func forEach(fn func(i int, name string, lane int) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs = make([]error, len(benchNames))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(benchNames) {
					return
				}
				errs[i] = fn(i, benchNames[i], lane)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", benchNames[i], err)
		}
	}
	return nil
}

// setupWarm generates the inputs, compiles every benchmark and records its
// trace and profile into a fresh corpus: recording only, no scoring. The
// traced run does the same steps through traceSetupBench instead.
func setupWarm(ctx context.Context, r *run, dir string) (*warmCorpus, error) {
	st, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	wc := &warmCorpus{benches: make(map[string]*workloads.Benchmark, len(benchNames)), store: st, dir: dir}
	benches := make([]*workloads.Benchmark, len(benchNames))
	err = forEach(func(i int, name string, lane int) error {
		var b *workloads.Benchmark
		var err error
		if r.traced {
			b, err = traceSetupBench(ctx, r, name, lane, st)
		} else {
			b, err = recordBench(ctx, r.seed, name, st)
		}
		benches[i] = b
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, n := range benchNames {
		wc.benches[n] = benches[i]
	}
	return wc, nil
}

// recordBench is one benchmark's untraced set-up: inputs, compile, record,
// store.
func recordBench(ctx context.Context, seed int, name string, st *corpus.Store) (*workloads.Benchmark, error) {
	sb, err := seeded(name, seed)
	if err != nil {
		return nil, err
	}
	b := inputSet{bench: sb, inputs: sb.Inputs()}.withInputs()
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	in := b.Inputs()
	tr, prof, err := corpus.RecordContext(ctx, prog, in, 0)
	if err != nil {
		return nil, err
	}
	return b, st.PutContext(ctx, corpus.KeyFor(name, prog, in), tr, prof)
}

// suitePass evaluates every frozen benchmark through a fresh Suite with
// the given scheme list and lookup, as one timed pass.
func suitePass(ctx context.Context, st *corpus.Store, schemes []string,
	lookup func(string) (*workloads.Benchmark, error)) (*experiments.Partial, *passMeter) {
	s := experiments.NewSuite(core.Config{Corpus: st, Schemes: schemes})
	s.Workers = workers
	s.Lookup = lookup
	m := startPass()
	p := s.EvalNamesPartial(ctx, benchNames)
	m.stop()
	return p, m
}

// passStats accumulates a run's passes into its end-to-end metrics.
type passStats struct {
	walls, peaks []float64
	ops          int
	events       int64 // branch events in one pass's traces
}

// account checks one pass's evaluations and counts its operations.
func (ps *passStats) account(r *run, chk *evalChecker, p *experiments.Partial, m *passMeter) {
	ps.walls = append(ps.walls, m.Wall.Seconds())
	ps.peaks = append(ps.peaks, m.PeakMB)
	for _, be := range p.Errors {
		r.fail("%v", be)
	}
	for _, e := range p.Evals {
		r.attempted++
		ps.ops++
		if e == nil {
			r.failed++
			continue
		}
		if len(ps.walls) == 1 {
			ps.events += int64(e.Trace.Len())
		}
		if bad := chk.check(e); len(bad) > 0 {
			r.failed++
			for _, b := range bad {
				r.fail("%s", b)
			}
		}
	}
}

// report sets the end-to-end metrics shared by the suite workloads.
func (ps *passStats) report(r *run, setups []float64) {
	total := 0.0
	for _, w := range ps.walls {
		total += w
	}
	r.scaleTo(ps.events, suiteRefEvents)
	r.setScaled("setup_s", median(setups), "s")
	r.setScaled("pass_s", median(ps.walls), "s")
	r.setScaled("req_per_s", float64(ps.ops)/total, "1/s")
	fmt.Fprintf(os.Stderr, "perfbench: raw passes %.4v s, peak RSS %.4v MB, setups %.3v s\n",
		ps.walls, ps.peaks, setups)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func suiteWarm(r *run) error {
	ctx := context.Background()
	if r.traced {
		return tracedSuite(ctx, r, true)
	}
	var setups []float64
	var wc *warmCorpus
	for rep := 0; rep < setupReps; rep++ {
		if wc != nil {
			os.RemoveAll(wc.dir)
		}
		runtime.GC()
		start := time.Now()
		var err error
		wc, err = setupWarm(ctx, r, filepath.Join(r.tmp, fmt.Sprintf("corpus-setup%d", rep)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	chk, err := newEvalChecker(r.seed, allSchemes)
	if err != nil {
		return err
	}
	var ps passStats
	for pass := 0; pass < passCount(r.seconds, warmPassS, 2); pass++ {
		p, m := suitePass(ctx, wc.store, allSchemes, wc.lookup)
		ps.account(r, chk, p, m)
	}
	ps.report(r, setups)
	return nil
}

func (wc *warmCorpus) lookup(name string) (*workloads.Benchmark, error) {
	b, ok := wc.benches[name]
	if !ok {
		return nil, fmt.Errorf("perfbench: %s not set up", name)
	}
	return b, nil
}

// coldLookup returns a lookup that hands out a fresh, uncompiled benchmark
// on every call, so each pass compiles and records afresh.
func coldLookup(sets []inputSet) func(string) (*workloads.Benchmark, error) {
	byName := make(map[string]inputSet, len(sets))
	for _, s := range sets {
		byName[s.bench.Name] = s
	}
	return func(name string) (*workloads.Benchmark, error) {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("perfbench: %s not set up", name)
		}
		return s.withInputs(), nil
	}
}

// coldSetupReps: record-cold's set-up is input generation alone, short
// enough that more repetitions cost little and steady its median.
const coldSetupReps = 15

func recordCold(r *run) error {
	ctx := context.Background()
	if r.traced {
		return tracedSuite(ctx, r, false)
	}
	var setups []float64
	var sets []inputSet
	for rep := 0; rep < coldSetupReps; rep++ {
		runtime.GC()
		start := time.Now()
		var err error
		if sets, err = genInputs(r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	chk, err := newEvalChecker(r.seed, paperSchemes)
	if err != nil {
		return err
	}
	lookup := coldLookup(sets)
	var ps passStats
	for pass := 0; pass < passCount(r.seconds, coldPassS, 3); pass++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("corpus-pass%d", pass))
		st, err := corpus.Open(dir)
		if err != nil {
			return err
		}
		p, m := suitePass(ctx, st, paperSchemes, lookup)
		ps.account(r, chk, p, m)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	ps.report(r, setups)
	return nil
}
