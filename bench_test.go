package branchcost_test

// The benchmark harness: one testing.B target per table and figure of the
// paper (run `go test -bench=.` here, or use cmd/branchsim to print the
// tables). Component micro-benchmarks (VM, BTBs, compiler, transform)
// follow the experiment benches.

import (
	"bytes"
	"context"
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
