package branchcost_test

// The benchmark harness: one testing.B target per table and figure of the
// paper (run `go test -bench=.` here, or use cmd/branchsim to print the
// tables). Component micro-benchmarks (VM, BTBs, compiler, transform)
// follow the experiment benches.

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"branchcost"
	"branchcost/internal/asm"
	"branchcost/internal/btb"
	"branchcost/internal/compile"
	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/isa"
	"branchcost/internal/opt"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// The suite is shared: the first experiment bench pays for the evaluation
// passes; later iterations and benches hit the cache, so each bench times
// table generation itself plus (once) its share of the measurement.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(core.Config{})
	})
	return suite
}

func BenchmarkTable1(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Table4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 2} {
			_, text, err := experiments.Figure(s, k, 8)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + text)
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		for _, k := range []int{4, 8} {
			_, text, err := experiments.Figure(s, k, 8)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + text)
			}
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		_, tbl, err := experiments.Headline(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkEvaluateBenchmark times the full three-scheme measurement
// pipeline of one benchmark end to end (compile is cached; profiling,
// two hardware evaluations, transform and FS evaluation are not).
func BenchmarkEvaluateBenchmark(b *testing.B) {
	bench, err := workloads.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bench.Program(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateBenchmark(bench, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- component micro-benchmarks ----

// BenchmarkVM measures raw interpreter throughput (instructions/op shown as
// steps metric).
func BenchmarkVM(b *testing.B) {
	prog, err := branchcost.Compile(`
func main() {
	var i; var s;
	s = 0;
	for (i = 0; i < 100000; i += 1) {
		s += i ^ (s >> 3);
	}
	putc('0' + s % 10);
}`)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := branchcost.Run(prog, nil, nil, branchcost.RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkVMWithHook measures interpreter throughput with a branch
// observer attached (the measurement configuration).
func BenchmarkVMWithHook(b *testing.B) {
	prog, err := branchcost.Compile(`
func main() {
	var i; var s;
	s = 0;
	for (i = 0; i < 100000; i += 1) {
		if (i % 3 == 0) { s += 1; } else { s -= 1; }
	}
	putc('0' + (s & 7));
}`)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	hook := func(ev vm.BranchEvent) { n++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := branchcost.Run(prog, nil, hook, branchcost.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	_ = n
}

// BenchmarkSBTB measures SBTB predict+update pairs.
func BenchmarkSBTB(b *testing.B) {
	s := btb.NewSBTB(256, 256)
	ev := vm.BranchEvent{Op: isa.BEQ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PC = int32(i % 512)
		ev.Taken = i%3 != 0
		ev.Target = ev.PC + 7
		s.Predict(ev)
		s.Update(ev)
	}
}

// BenchmarkCBTB measures CBTB predict+update pairs.
func BenchmarkCBTB(b *testing.B) {
	c := btb.NewCBTB(256, 256, 2, 2)
	ev := vm.BranchEvent{Op: isa.BEQ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PC = int32(i % 512)
		ev.Taken = i%3 != 0
		ev.Target = ev.PC + 7
		c.Predict(ev)
		c.Update(ev)
	}
}

// BenchmarkCompile measures MC compilation of the largest benchmark source.
func BenchmarkCompile(b *testing.B) {
	bench, err := workloads.ByName("cccp")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := branchcost.Compile(bench.Sources...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransform measures the Forward Semantic transform (CFG, traces,
// layout, slots) of a profiled benchmark.
func BenchmarkTransform(b *testing.B) {
	bench, err := workloads.ByName("grep")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	prof, err := branchcost.CollectProfile(prog, [][]byte{bench.Input(0), bench.Input(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := branchcost.Transform(prog, prof, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorEvaluation measures the evaluator over a replayed
// branch stream (predict+score+update for SBTB, CBTB and likely-bit).
func BenchmarkPredictorEvaluation(b *testing.B) {
	bench, err := workloads.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	var events []vm.BranchEvent
	if _, err := vm.Run(prog, bench.Input(0), func(ev vm.BranchEvent) {
		if len(events) < 200000 {
			events = append(events, ev)
		}
	}, vm.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs := []*predict.Evaluator{
			{P: btb.NewSBTB(256, 256)},
			{P: btb.NewCBTB(256, 256, 2, 2)},
			{P: predict.LikelyBit{Targets: predict.ProgramTargets{Prog: prog}}},
		}
		for _, ev := range events {
			for _, e := range evs {
				e.Observe(ev)
			}
		}
	}
	b.ReportMetric(float64(len(events)), "branches/op")
}

// BenchmarkOptimize measures the optimizer over the largest benchmark.
func BenchmarkOptimize(b *testing.B) {
	bench, err := workloads.ByName("cccp")
	if err != nil {
		b.Fatal(err)
	}
	raw, err := bench.RawProgram()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsmRoundTrip measures Format+Parse of a benchmark binary.
func BenchmarkAsmRoundTrip(b *testing.B) {
	bench, err := workloads.ByName("grep")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, err := asm.Format(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := asm.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures BCT2 decode + evaluator throughput.
func BenchmarkTraceReplay(b *testing.B) {
	bench, err := workloads.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewBCT2Writer(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := vm.Run(prog, bench.Input(0), tw.Hook(), vm.Config{}); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := tracefile.NewBCT2Reader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		ev := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2)}
		if err := tracefile.ScoreStream(context.Background(), d, ev.Hook()); err != nil {
			b.Fatal(err)
		}
	}
}

// traceBenches are the benchmarks the trace-layer benches record: two of
// the paper's, an indirect-call workload and the 1291-site BTB stress test,
// about 25M steps and 5M branch events in all.
var traceBenches = []string{"wc", "cccp", "vcall", "btb-stress"}

type traceJob struct {
	prog   *isa.Program
	inputs [][]byte
}

func traceJobs(b *testing.B) []traceJob {
	var jobs []traceJob
	for _, name := range traceBenches {
		bench, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, traceJob{prog, bench.Inputs()})
	}
	return jobs
}

// BenchmarkTraceRecord measures the recording pass as core runs it: the VM
// over every input of traceBenches with the profile collector and the trace
// recorder hooked, in ns per VM step and per recorded branch event.
func BenchmarkTraceRecord(b *testing.B) {
	jobs := traceJobs(b)
	var steps, events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			col := &profile.Collector{P: profile.New()}
			tr, err := tracefile.Record(j.prog, j.inputs, col.Hook())
			if err != nil {
				b.Fatal(err)
			}
			steps += tr.Steps
			events += int64(tr.Len())
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(steps), "ns/step")
	b.ReportMetric(ns/float64(events), "ns/event")
}

// BenchmarkTraceEncode measures Trace.WriteTo, the BCT2 encoding a corpus
// store pays, over the traces of traceBenches, in ns per event.
func BenchmarkTraceEncode(b *testing.B) {
	var traces []*tracefile.Trace
	for _, j := range traceJobs(b) {
		tr, err := tracefile.Record(j.prog, j.inputs)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if _, err := tr.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
			events += int64(tr.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// replayBenches are the benchmarks BenchmarkSchemeReplay scores: two of the
// paper's (grep is the suite's longest trace), the interpreter with its
// indirect dispatch, an indirect-call workload and the BTB stress test.
var replayBenches = []string{"wc", "grep", "interp", "vcall", "btb-stress"}

// BenchmarkSchemeReplay measures scoring recorded traces the way core
// does, one tracefile.Score call per trace, in ns per event: each
// registered scheme alone, then all of them together in one call (the
// suite-warm set), then the daemon's default upload set (every scheme that
// scores a bare trace, in the daemon's order) in one call, over the traces
// of replayBenches. Predictors are built outside the timer.
func BenchmarkSchemeReplay(b *testing.B) {
	names := predict.Names()
	var upload []string
	for _, n := range predict.SortedNames() {
		if sc := predict.MustLookup(n); !sc.Transformed && !sc.NeedsContext {
			upload = append(upload, n)
		}
	}
	var evals []*core.Eval
	var events int64
	for _, name := range replayBenches {
		bench, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.EvaluateBenchmark(bench, core.Config{Schemes: names})
		if err != nil {
			b.Fatal(err)
		}
		evals = append(evals, e)
		events += int64(e.Trace.Len())
	}
	newEvaluators := func(e *core.Eval, schemes []string) []*predict.Evaluator {
		out := make([]*predict.Evaluator, len(schemes))
		for i, n := range schemes {
			if sc := predict.MustLookup(n); sc.Transformed {
				out[i] = &predict.Evaluator{P: e.FSResult.Predictor(e.Program)}
			} else {
				out[i] = &predict.Evaluator{P: sc.New(predict.SchemeContext{Prog: e.Program, Profile: e.Profile})}
			}
		}
		return out
	}
	score := func(b *testing.B, schemes []string) {
		for i := 0; i < b.N; i++ {
			for _, e := range evals {
				b.StopTimer()
				evs := newEvaluators(e, schemes)
				b.StartTimer()
				if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
	}
	for _, n := range names {
		b.Run(n, func(b *testing.B) { score(b, []string{n}) })
	}
	b.Run("all", func(b *testing.B) { score(b, names) })
	b.Run("upload", func(b *testing.B) { score(b, upload) })
}

// BenchmarkPipesim measures the stage-level simulator over one benchmark
// run at width 4, observing the CBTB's evaluator.
func BenchmarkPipesim(b *testing.B) {
	bench, err := workloads.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	in := bench.Input(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := pipesim.New(4, 1, 2, 2)
		ev := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2), Obs: sim}
		if _, err := vm.Run(prog, in, ev.Hook(), vm.Config{Trace: sim.Step}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlinedCompile measures compilation with inlining enabled.
func BenchmarkInlinedCompile(b *testing.B) {
	bench, err := workloads.ByName("cccp")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.CompileOpts(compile.Options{Inline: true}, bench.Sources...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloads reports VM throughput per suite benchmark (run 0).
func BenchmarkWorkloads(b *testing.B) {
	for _, bench := range workloads.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog, err := bench.Program()
			if err != nil {
				b.Fatal(err)
			}
			in := bench.Input(0)
			var steps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := branchcost.Run(prog, in, nil, branchcost.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}
