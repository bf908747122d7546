// Command btrace records, replays, and inspects branch traces
// (trace-driven simulation, the methodology of the paper's era), and
// manages the disk-backed trace corpus.
//
// Usage:
//
//	btrace -record -bench grep -o grep.bt      # record a benchmark (BCT2)
//	btrace -record -o prog.bt prog.mc          # record an MC program (empty input)
//	btrace grep.bt                             # replay through every context-free scheme
//	btrace -scheme cbtb -entries 64 -assoc 4 grep.bt  # one scheme, custom geometry
//	btrace -scheme tage -scheme-opt tage.tables=5 grep.bt  # per-scheme option
//	btrace -frontend -width 1,2,4,8 grep.bt    # trace-driven frontend cost report
//	btrace -explain -topk 10 grep.bt           # per-scheme mispredict forensics
//	btrace -explain-json attr.json grep.bt     # ... full attribution report as JSON
//	btrace -inspect grep.bt                    # blocks, sites, events
//	btrace -verify grep.bt                     # differential check vs the oracle models
//	btrace -ls                                 # list schemes, default configs, storage bits
//	btrace -corpus DIR -record-suite           # record-or-load all benchmarks into DIR
//	btrace -corpus DIR -ls                     # list corpus entries
//	btrace -corpus DIR -verify                 # verify every corpus trace
//
// -entries/-assoc shape both BTBs and -bits/-threshold the CBTB's counter;
// -scheme-opt overrides win over them. A configuration no predictor can be
// built from exits 2 before anything runs.
//
// -verify replays the trace through every context-free registered scheme and
// a deliberately naive reference model (internal/oracle) in lockstep: the
// first event on which the two disagree is reported with its step index,
// branch site, and both predictions, and the exit status is nonzero. Schemes
// without a reference model, or needing program context, are reported as
// skipped.
//
// Recording is watchdogged: -deadline bounds each benchmark's recording wall
// clock, -max-steps bounds each VM run's step count, and -partial makes
// -record-suite continue past failed benchmarks, reporting every failure at
// the end instead of aborting on the first.
//
// -corpus defaults to $BRANCHCOST_CORPUS. Replay draws its schemes from the
// registry: every registered scheme that needs neither the program (for
// static targets) nor a transformed binary can score a standalone trace.
// Traces are BCT2 files and replay as a block stream (decode overlapped with
// scoring, memory bounded by a few blocks).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"branchcost"
	"branchcost/internal/attr"
	"branchcost/internal/corpus"
	"branchcost/internal/oracle"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"

	_ "branchcost/internal/btb"     // register sbtb/cbtb/btb2l
	_ "branchcost/internal/history" // register gshare/local/perceptron/tage
)

func main() {
	var (
		record      = flag.Bool("record", false, "record a trace instead of replaying")
		bench       = flag.String("bench", "", "benchmark to record")
		out         = flag.String("o", "trace.bt", "output path when recording")
		inspect     = flag.Bool("inspect", false, "describe a trace file instead of replaying")
		verify      = flag.Bool("verify", false, "differentially verify schemes against the oracle (one trace file, or the whole -corpus)")
		corpusDir   = flag.String("corpus", os.Getenv(corpus.EnvVar), "corpus directory (default $BRANCHCOST_CORPUS)")
		recordSuite = flag.Bool("record-suite", false, "record-or-load every benchmark into -corpus")
		list        = flag.Bool("ls", false, "list corpus entries")
		scheme      = flag.String("scheme", "", "replay one registered scheme (default: all context-free schemes)")
		entries     = flag.Int("entries", 256, "SBTB and CBTB entries")
		assoc       = flag.Int("assoc", 256, "SBTB and CBTB associativity")
		bits        = flag.Int("bits", 2, "CBTB counter bits")
		thresh      = flag.Int("threshold", -1, "CBTB counter threshold (-1: auto, the counter midpoint)")
		frontend    = flag.Bool("frontend", false, "with replay: drive the trace-fed pipeline simulator and report per-width branch costs")
		widthSel    = flag.String("width", "", "comma-separated fetch widths for -frontend (default 1,2,4,8)")
		explain     = flag.Bool("explain", false, "with replay: per-scheme mispredict forensics (top sites, accuracy over time)")
		explainJSON = flag.String("explain-json", "", "with -explain: also write the full attribution report as JSON to this path")
		topK        = flag.Int("topk", attr.DefaultTopK, "how many worst sites -explain reports per scheme")
		window      = flag.Int64("window", attr.DefaultWindow, "interval length, in branch events, of the -explain time series")

		deadline = flag.Duration("deadline", 0, "per-benchmark recording deadline, e.g. 30s (0 disables)")
		maxSteps = flag.Int64("max-steps", 0, "per-run VM step budget when recording (0 = default budget)")
		partial  = flag.Bool("partial", false, "with -record-suite: keep recording past failed benchmarks and report every failure at the end")
	)
	var schemeOpts multiFlag
	flag.Var(&schemeOpts, "scheme-opt", "per-scheme option override, scheme.key=value (repeatable, e.g. -scheme-opt gshare.history=14)")
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()
	set, err := tf.Init()
	if err != nil {
		fail(err)
	}
	ctx := telemetry.NewContext(context.Background(), set)

	configs, err := predict.FlagConfigs(*entries, *assoc, *bits, *thresh, schemeOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrace: %v\n", err)
		os.Exit(2)
	}
	// -ls without an explicit -corpus flag lists the scheme registry; with
	// one it keeps its historical meaning, listing corpus entries.
	corpusFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "corpus" {
			corpusFlagSet = true
		}
	})
	switch {
	case *verify && flag.NArg() == 1:
		doVerifyFile(ctx, flag.Arg(0), configs)
	case *verify && flag.NArg() == 0:
		doVerifyCorpus(ctx, *corpusDir, configs)
	case *verify:
		fail(fmt.Errorf("-verify takes one trace file, or none with -corpus"))
	case *recordSuite:
		doRecordSuite(ctx, *corpusDir, *deadline, *maxSteps, *partial)
	case *list && corpusFlagSet:
		doList(*corpusDir)
	case *list:
		doListSchemes(configs)
	case *record:
		doRecord(ctx, *bench, *out, flag.Args(), *deadline, *maxSteps)
	case *inspect:
		if flag.NArg() != 1 {
			fail(fmt.Errorf("-inspect needs one trace file"))
		}
		doInspect(ctx, flag.Arg(0))
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "btrace: need a trace file to replay (or -record/-inspect/-record-suite/-ls)")
			os.Exit(2)
		}
		widths, err := parseWidths(*widthSel, *frontend)
		if err != nil {
			fail(err)
		}
		var rep *explainOpts
		if *explain || *explainJSON != "" {
			rep = &explainOpts{jsonPath: *explainJSON, opts: attr.Options{TopK: *topK, Window: *window}}
		}
		doReplay(ctx, flag.Arg(0), *scheme, configs, widths, rep)
	}
	if err := tf.Close(nil); err != nil {
		fail(err)
	}
}

// multiFlag is a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// doListSchemes prints every registered scheme with its resolved default
// configuration and, for the configurable hardware schemes, the predictor
// state it implies in bits.
func doListSchemes(configs predict.ConfigSet) {
	for _, n := range predict.Names() {
		sc := predict.MustLookup(n)
		cfg := configs.Resolved(n)
		desc := "-"
		storage := "-"
		if cfg != nil {
			desc = predict.DescribeOptions(cfg)
			if !sc.NeedsContext && !sc.Transformed {
				if s, ok := sc.New(predict.SchemeContext{Configs: configs}).(predict.StorageSized); ok {
					storage = fmt.Sprintf("%d", s.StorageBits())
				}
			}
		}
		fmt.Printf("%-16s %-10s %s\n", n, storage, desc)
		fmt.Printf("%-16s %-10s %s\n", "", "", sc.Description)
	}
}

func doRecord(ctx context.Context, bench, out string, srcPaths []string, deadline time.Duration, maxSteps int64) {
	var prog *branchcost.Program
	var inputs [][]byte
	switch {
	case bench != "":
		b, err := branchcost.BenchmarkByName(bench)
		if err != nil {
			fail(err)
		}
		p, err := b.Program()
		if err != nil {
			fail(err)
		}
		prog, inputs = p, b.Inputs()
	case len(srcPaths) > 0:
		var sources []string
		for _, path := range srcPaths {
			src, err := os.ReadFile(path)
			if err != nil {
				fail(err)
			}
			sources = append(sources, string(src))
		}
		p, err := branchcost.Compile(sources...)
		if err != nil {
			fail(err)
		}
		prog, inputs = p, [][]byte{nil}
	default:
		fail(fmt.Errorf("need -bench or source files"))
	}

	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	t, err := tracefile.RecordConfig(ctx, prog, inputs, vm.Config{MaxSteps: maxSteps})
	if err != nil {
		fail(err)
	}
	of, err := os.Create(out)
	if err != nil {
		fail(err)
	}
	defer of.Close()
	bw := bufio.NewWriterSize(of, 1<<20)
	n, err := t.WriteTo(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("recorded %d branch events (%d instructions, %d runs) to %s (BCT2, %d bytes)\n",
		t.Len(), t.Steps, t.Runs, out, n)
}

func openCorpus(dir string) *corpus.Store {
	if dir == "" {
		fail(fmt.Errorf("no corpus directory (-corpus or $%s)", corpus.EnvVar))
	}
	s, err := corpus.Open(dir)
	if err != nil {
		fail(err)
	}
	return s
}

// doRecordSuite warms the corpus: every benchmark whose entry is missing is
// recorded by one instrumented VM pass; present entries are left untouched.
// The sweep covers the full registry — the paper's twelve and the modern
// workload classes — so downstream corpus consumers (the oracle sweep
// included) see every class. A positive deadline bounds each benchmark's
// recording, maxSteps bounds each VM run, and partial turns per-benchmark
// failures into a joined end-of-run report instead of aborting the warm-up.
func doRecordSuite(ctx context.Context, dir string, deadline time.Duration, maxSteps int64, partial bool) {
	store := openCorpus(dir)
	var errs []error
	for _, b := range workloads.Everything() {
		err := recordOne(ctx, store, b, deadline, maxSteps)
		if err == nil {
			continue
		}
		err = fmt.Errorf("%s: %w", b.Name, err)
		if !partial {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "btrace: %v (continuing: -partial)\n", err)
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		fail(fmt.Errorf("%d benchmark(s) failed to record:\n%w", len(errs), err))
	}
}

func recordOne(ctx context.Context, store *corpus.Store, b *workloads.Benchmark, deadline time.Duration, maxSteps int64) error {
	prog, err := b.Program()
	if err != nil {
		return err
	}
	inputs := b.Inputs()
	k := corpus.KeyFor(b.Name, prog, inputs)
	if store.Has(k) {
		fmt.Printf("%-10s warm (%s)\n", b.Name, k.Hash)
		return nil
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	t, prof, err := corpus.RecordContext(ctx, prog, inputs, maxSteps)
	if err != nil {
		return err
	}
	if err := store.PutContext(ctx, k, t, prof); err != nil {
		return err
	}
	fmt.Printf("%-10s recorded %d events, %d sites (%s)\n", b.Name, t.Len(), t.Sites(), k.Hash)
	return nil
}

func doList(dir string) {
	store := openCorpus(dir)
	keys, err := store.Keys()
	if err != nil {
		fail(err)
	}
	for _, k := range keys {
		st, err := os.Stat(store.TracePath(k))
		if err != nil {
			fail(err)
		}
		// Class and fingerprint columns: the registered class (paper suite
		// members print "paper", unregistered names "-"), and the stored
		// profile's measured fingerprint so a listing doubles as a conformance
		// eyeball — the declared contract lives on the benchmark. Keys carry
		// sanitized names, so match the registry through the same mapping.
		class := "-"
		for _, b := range workloads.Everything() {
			if corpus.SanitizeName(b.Name) == k.Name {
				if class = b.Class; class == "" {
					class = "paper"
				}
				break
			}
		}
		fp := "-"
		if pf, err := os.Open(store.ProfilePath(k)); err == nil {
			prof, perr := profile.Load(pf)
			pf.Close()
			if perr == nil {
				f := prof.Fingerprint()
				fp = fmt.Sprintf("taken=%.3f cond=%.3f ind=%.3f sites=%d",
					f.TakenRatio, f.CondTakenRatio, f.IndirectShare, f.Sites)
			}
		}
		fmt.Printf("%-13s %-9s %s  %8d bytes  %s\n", k.Name, class, k.Hash, st.Size(), fp)
	}
	fmt.Printf("%d entries in %s\n", len(keys), store.Dir())
}

func doInspect(ctx context.Context, path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	d, err := tracefile.NewBCT2Reader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		fail(err)
	}
	d.Instrument(telemetry.FromContext(ctx))
	for {
		if _, err := d.NextBlock(nil); err != nil {
			if !errors.Is(err, io.EOF) {
				fail(err)
			}
			break
		}
	}
	fmt.Printf("%s: BCT2, %d events, %d sites, %d blocks, %d bytes, %d instructions, %d runs\n",
		path, d.Events(), d.Sites(), d.Blocks(), d.Offset(), d.Steps(), d.Runs())
}

// printVerdicts renders one trace's verification outcomes, returning how
// many schemes failed (divergence or bookkeeping mismatch).
func printVerdicts(verdicts []oracle.Verdict) (failed int) {
	for _, v := range verdicts {
		switch {
		case v.Skipped != "":
			fmt.Printf("  %-16s skipped: %s\n", v.Scheme, v.Skipped)
		case v.Div != nil:
			fmt.Printf("  %-16s FAIL\n    %v\n", v.Scheme, v.Div)
			failed++
		case v.Err != nil:
			fmt.Printf("  %-16s FAIL\n    %v\n", v.Scheme, v.Err)
			failed++
		default:
			fmt.Printf("  %-16s ok  (%d events, accuracy %.3f%%)\n",
				v.Scheme, v.Events, 100*v.Stats.Accuracy())
		}
	}
	return failed
}

// doVerifyFile replays one trace file through every verifiable scheme and
// its oracle twin in lockstep, exiting nonzero on the first divergence.
func doVerifyFile(ctx context.Context, path string, configs predict.ConfigSet) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	tr, err := tracefile.ReadTraceContext(ctx, bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d events\n", path, tr.Len())
	if n := printVerdicts(oracle.VerifyTrace(tr, configs)); n > 0 {
		fail(fmt.Errorf("%d scheme(s) diverged from the oracle", n))
	}
}

// doVerifyCorpus verifies every trace in the corpus, keeps going past
// failures, and reports a summary (nonzero exit if anything diverged).
func doVerifyCorpus(ctx context.Context, dir string, configs predict.ConfigSet) {
	store := openCorpus(dir)
	keys, err := store.Keys()
	if err != nil {
		fail(err)
	}
	if len(keys) == 0 {
		fail(fmt.Errorf("corpus %s is empty; run -record-suite first", store.Dir()))
	}
	traces, failed := 0, 0
	for _, k := range keys {
		tr, _, err := store.LoadContext(ctx, k)
		if err != nil {
			fmt.Printf("%-10s FAIL: %v\n", k.Name, err)
			failed++
			continue
		}
		traces++
		fmt.Printf("%-10s %s  %d events\n", k.Name, k.Hash, tr.Len())
		failed += printVerdicts(oracle.VerifyTrace(tr, configs))
	}
	if failed > 0 {
		fail(fmt.Errorf("verification failed: %d scheme/trace pair(s) diverged", failed))
	}
	fmt.Printf("verified %d trace(s): every scheme agrees with its oracle\n", traces)
}

// replayable returns the registered schemes a standalone trace can score:
// those needing neither program context nor a transformed binary.
func replayable() []string {
	var names []string
	for _, n := range predict.Names() {
		sc := predict.MustLookup(n)
		if sc.NeedsContext || sc.Transformed {
			continue
		}
		names = append(names, n)
	}
	return names
}

// parseWidths parses -width; with -frontend set and no list given, the
// default sweep {1,2,4,8} applies.
func parseWidths(sel string, frontend bool) ([]int, error) {
	if sel == "" {
		if frontend {
			return []int{1, 2, 4, 8}, nil
		}
		return nil, nil
	}
	var widths []int
	for _, part := range strings.Split(sel, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad -width element %q (want positive integers)", part)
		}
		widths = append(widths, w)
	}
	return widths, nil
}

// explainOpts carries the -explain configuration into the replay.
type explainOpts struct {
	jsonPath string
	opts     attr.Options
}

func doReplay(ctx context.Context, path, scheme string, configs predict.ConfigSet, widths []int, explain *explainOpts) {
	names := replayable()
	if scheme != "" {
		sc, ok := predict.Lookup(scheme)
		if !ok {
			fail(fmt.Errorf("unknown scheme %q (registered: %v)", scheme, predict.SortedNames()))
		}
		if sc.NeedsContext || sc.Transformed {
			fail(fmt.Errorf("scheme %q needs program context; a standalone trace can replay: %v",
				scheme, replayable()))
		}
		names = []string{scheme}
	}

	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	// -frontend: one trace-fed pipeline simulator per (scheme, width) rides
	// the same replay, observing the scheme's evaluator.
	const fk, fl, fm = 1, 2, 2
	evals := make([]*predict.Evaluator, len(names))
	hooks := make([]vm.BranchFunc, len(names))
	recs := make([]*attr.Recorder, len(names))
	sims := make(map[string]map[int]*pipesim.Sim, len(names))
	for i, n := range names {
		var obs predict.Observers
		if explain != nil {
			// One recorder per evaluator: the replay engine runs each hook
			// on one goroutine at a time, so the single-goroutine recorder
			// rides its evaluator safely.
			recs[i] = attr.NewRecorder(explain.opts)
			obs = append(obs, recs[i])
		}
		sims[n] = make(map[int]*pipesim.Sim, len(widths))
		for _, w := range widths {
			sim := pipesim.New(w, fk, fl, fm)
			sims[n][w] = sim
			obs = append(obs, sim.TraceObserver())
		}
		evals[i] = &predict.Evaluator{P: predict.MustLookup(n).New(predict.SchemeContext{Configs: configs})}
		if len(obs) > 0 {
			evals[i].Obs = obs
		}
		hooks[i] = evals[i].Hook()
	}
	// Stream: blocks decode once and fan out, nothing is materialized.
	d, err := tracefile.NewBCT2Reader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		fail(err)
	}
	if err := tracefile.ScoreStream(ctx, d, hooks...); err != nil {
		fail(err)
	}
	for i, n := range names {
		e := evals[i]
		fmt.Printf("%-16s accuracy %7.3f%%  miss ratio %.4f  (%d branches)\n",
			n, 100*e.S.Accuracy(), e.S.MissRatio(), e.S.Branches)
	}
	if explain != nil {
		var summaries []*attr.Summary
		for i, n := range names {
			if err := recs[i].Check(evals[i].S); err != nil {
				fail(err)
			}
			sum := recs[i].Summarize(n, path)
			summaries = append(summaries, sum)
			fmt.Printf("\n%s: top %d mispredicting sites (%d tracked, %d mispredicts total):\n",
				n, len(sum.TopSites), sum.Sites, sum.Mispredicts)
			if err := sum.WriteTable(os.Stdout); err != nil {
				fail(err)
			}
			fmt.Printf("\n%s: accuracy per %d-event window:\n", n, sum.Window)
			if err := sum.WriteWindows(os.Stdout); err != nil {
				fail(err)
			}
		}
		if explain.jsonPath != "" {
			of, err := os.Create(explain.jsonPath)
			if err != nil {
				fail(err)
			}
			enc := json.NewEncoder(of)
			enc.SetIndent("", "  ")
			err = enc.Encode(struct {
				Trace   string          `json:"trace"`
				Schemes []*attr.Summary `json:"schemes"`
			}{path, summaries})
			if cerr := of.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
			fmt.Printf("\nwrote attribution report to %s\n", explain.jsonPath)
		}
	}
	if len(widths) > 0 {
		fmt.Printf("\nfrontend cost per branch (k=%d, l=%d, m=%d):\n", fk, fl, fm)
		for _, n := range names {
			for _, w := range widths {
				s := sims[n][w]
				model := s.Superscalar().Cost(s.Accuracy())
				diff := s.CostPerBranch() - model
				if diff < 0 {
					diff = -diff
				}
				fmt.Printf("%-16s W=%d  sim %.4f  model %.4f  |err| %.2e (tol %.2e)  util %.3f\n",
					n, w, s.CostPerBranch(), model, diff, s.ModelTolerance(), s.FetchUtilization())
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "btrace: %v\n", err)
	os.Exit(1)
}
