package experiments

import (
	"context"
	"fmt"

	"branchcost/internal/fs"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// CounterSweepRow is the CBTB accuracy at one counter width.
type CounterSweepRow struct {
	Bits      int
	Threshold uint8
	Accuracy  float64 // suite average
}

// CounterSweep varies the CBTB counter width (threshold at half range),
// testing J. E. Smith's observation — cited by the paper — that counters
// longer than 2 bits gain little and can lose accuracy to "inertia". Every
// configuration replays the suite's cached trace; no VM re-execution.
func CounterSweep(s *Suite, names []string) ([]CounterSweepRow, *stats.Table, error) {
	bitsList := []int{1, 2, 3, 4, 5}
	sums := make([]float64, len(bitsList))
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		evs := make([]*predict.Evaluator, len(bitsList))
		for i, bits := range bitsList {
			evs[i] = &predict.Evaluator{P: newScheme("cbtb", e, predict.BTBConfigs(256, 256, bits, nil))}
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i := range bitsList {
			sums[i] += evs[i].S.Accuracy()
		}
	}
	t := stats.NewTable("Ablation: CBTB counter width (256-entry, threshold = half range)",
		"Bits", "Threshold", "Avg accuracy")
	var rows []CounterSweepRow
	for i, bits := range bitsList {
		r := CounterSweepRow{Bits: bits, Threshold: 1 << (bits - 1),
			Accuracy: sums[i] / float64(len(names))}
		rows = append(rows, r)
		t.AddRow(fmt.Sprintf("%d", r.Bits), fmt.Sprintf("%d", r.Threshold), stats.Pct(r.Accuracy))
	}
	return rows, t, nil
}

// SizeSweepRow is both buffers' accuracy at one capacity.
type SizeSweepRow struct {
	Entries  int
	SBTBAcc  float64
	CBTBAcc  float64
	SBTBMiss float64
	CBTBMiss float64
}

// SizeSweep varies the BTB capacity (fully associative), showing how many
// entries the paper's 256 actually buys. All fourteen configurations score
// in one parallel replay of each benchmark's cached trace.
func SizeSweep(s *Suite, names []string) ([]SizeSweepRow, *stats.Table, error) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	type acc struct{ sa, ca, sm, cm float64 }
	sums := make([]acc, len(sizes))
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		var evs []*predict.Evaluator
		for _, n := range sizes {
			evs = append(evs,
				&predict.Evaluator{P: newScheme("sbtb", e, predict.BTBConfigs(n, n, 2, nil))},
				&predict.Evaluator{P: newScheme("cbtb", e, predict.BTBConfigs(n, n, 2, nil))})
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i := range sizes {
			sums[i].sa += evs[2*i].S.Accuracy()
			sums[i].sm += evs[2*i].S.MissRatio()
			sums[i].ca += evs[2*i+1].S.Accuracy()
			sums[i].cm += evs[2*i+1].S.MissRatio()
		}
	}
	t := stats.NewTable("Ablation: BTB capacity (fully associative)",
		"Entries", "A_SBTB", "rho_SBTB", "A_CBTB", "rho_CBTB")
	var rows []SizeSweepRow
	n := float64(len(names))
	for i, sz := range sizes {
		r := SizeSweepRow{Entries: sz,
			SBTBAcc: sums[i].sa / n, CBTBAcc: sums[i].ca / n,
			SBTBMiss: sums[i].sm / n, CBTBMiss: sums[i].cm / n}
		rows = append(rows, r)
		t.AddRow(fmt.Sprintf("%d", sz), stats.Pct(r.SBTBAcc), stats.F2(r.SBTBMiss),
			stats.Pct(r.CBTBAcc), fmt.Sprintf("%.4f", r.CBTBMiss))
	}
	return rows, t, nil
}

// AssocSweepRow is both buffers' accuracy at one associativity.
type AssocSweepRow struct {
	Assoc   int
	SBTBAcc float64
	CBTBAcc float64
}

// AssocSweep varies associativity at 256 entries. The paper notes full
// associativity "may not be feasible to implement" and that its results are
// therefore "biased slightly in favor of the two hardware approaches"; this
// sweep quantifies the bias.
func AssocSweep(s *Suite, names []string) ([]AssocSweepRow, *stats.Table, error) {
	asss := []int{1, 2, 4, 8, 256}
	type acc struct{ sa, ca float64 }
	sums := make([]acc, len(asss))
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		var evs []*predict.Evaluator
		for _, a := range asss {
			evs = append(evs,
				&predict.Evaluator{P: newScheme("sbtb", e, predict.BTBConfigs(256, a, 2, nil))},
				&predict.Evaluator{P: newScheme("cbtb", e, predict.BTBConfigs(256, a, 2, nil))})
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i := range asss {
			sums[i].sa += evs[2*i].S.Accuracy()
			sums[i].ca += evs[2*i+1].S.Accuracy()
		}
	}
	t := stats.NewTable("Ablation: BTB associativity (256 entries)",
		"Assoc", "A_SBTB", "A_CBTB")
	var rows []AssocSweepRow
	n := float64(len(names))
	for i, a := range asss {
		r := AssocSweepRow{Assoc: a, SBTBAcc: sums[i].sa / n, CBTBAcc: sums[i].ca / n}
		rows = append(rows, r)
		label := fmt.Sprintf("%d-way", a)
		if a == 256 {
			label = "full"
		}
		t.AddRow(label, stats.Pct(r.SBTBAcc), stats.Pct(r.CBTBAcc))
	}
	return rows, t, nil
}

// CtxSwitchRow shows scheme accuracies under periodic predictor flushes.
type CtxSwitchRow struct {
	FlushEvery    int64 // 0 = never
	SBTBAcc       float64
	CBTBAcc       float64
	GShareAcc     float64
	LocalAcc      float64
	PerceptronAcc float64
	TAGEAcc       float64
	FSAcc         float64
}

// ContextSwitch simulates context switching by flushing the hardware
// predictors every N branches. The paper's §3 predicts the hardware schemes
// degrade while the Forward Semantic is unaffected. Each flush period
// replays the cached trace with fresh predictor instances; the Forward
// Semantic predictor is stateless (Reset is a no-op), so its accuracy is
// taken from the base evaluation — flushing cannot change it. The
// history-based schemes sit in the same sweep: their larger warm-up state
// (histories, pattern tables, weights) makes them the most
// context-switch-sensitive column of the table.
func ContextSwitch(s *Suite, names []string) ([]CtxSwitchRow, *stats.Table, error) {
	periods := []int64{0, 100000, 10000, 1000}
	historySchemes := []string{"gshare", "local", "perceptron", "tage"}
	rows := make([]CtxSwitchRow, len(periods))
	configs := s.Cfg.Configs()
	for i, p := range periods {
		rows[i].FlushEvery = p
		for _, name := range names {
			e, err := s.Eval(name)
			if err != nil {
				return nil, nil, err
			}
			base, err := e.Scored("fs", "sbtb", "cbtb")
			if err != nil {
				return nil, nil, fmt.Errorf("ctxswitch: %w", err)
			}
			rows[i].FSAcc += base[0].Stats.Accuracy()
			var evs []*predict.Evaluator
			if p != 0 {
				evs = append(evs,
					&predict.Evaluator{P: newScheme("sbtb", e, configs), FlushEvery: p},
					&predict.Evaluator{P: newScheme("cbtb", e, configs), FlushEvery: p})
			}
			histAt := len(evs)
			for _, h := range historySchemes {
				evs = append(evs, &predict.Evaluator{P: newScheme(h, e, configs), FlushEvery: p})
			}
			if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
				return nil, nil, err
			}
			if p == 0 {
				rows[i].SBTBAcc += base[1].Stats.Accuracy()
				rows[i].CBTBAcc += base[2].Stats.Accuracy()
			} else {
				rows[i].SBTBAcc += evs[0].S.Accuracy()
				rows[i].CBTBAcc += evs[1].S.Accuracy()
			}
			rows[i].GShareAcc += evs[histAt].S.Accuracy()
			rows[i].LocalAcc += evs[histAt+1].S.Accuracy()
			rows[i].PerceptronAcc += evs[histAt+2].S.Accuracy()
			rows[i].TAGEAcc += evs[histAt+3].S.Accuracy()
		}
		n := float64(len(names))
		rows[i].SBTBAcc /= n
		rows[i].CBTBAcc /= n
		rows[i].GShareAcc /= n
		rows[i].LocalAcc /= n
		rows[i].PerceptronAcc /= n
		rows[i].TAGEAcc /= n
		rows[i].FSAcc /= n
	}
	t := stats.NewTable("Ablation: context switching (flush hardware predictors every N branches)",
		"Flush period", "A_SBTB", "A_CBTB", "A_gshare", "A_local", "A_perc", "A_TAGE", "A_FS")
	for _, r := range rows {
		label := "never"
		if r.FlushEvery > 0 {
			label = fmt.Sprintf("%d", r.FlushEvery)
		}
		t.AddRow(label, stats.Pct(r.SBTBAcc), stats.Pct(r.CBTBAcc),
			stats.Pct(r.GShareAcc), stats.Pct(r.LocalAcc),
			stats.Pct(r.PerceptronAcc), stats.Pct(r.TAGEAcc), stats.Pct(r.FSAcc))
	}
	return rows, t, nil
}

// StaticRow is one static baseline's suite-average accuracy.
type StaticRow struct {
	Scheme   string
	Accuracy float64
}

// StaticSchemes measures the related-work baselines the paper discusses:
// always-taken (63–77% in the literature), always-not-taken, and
// backward-taken/forward-not-taken (76.5% in J. E. Smith's study). All four
// baselines come from the scheme registry and replay the cached trace (the
// opcode-bias scheme's constructor consumes the cached profile, matching
// its original form: directions derived from performance studies).
func StaticSchemes(s *Suite, names []string) ([]StaticRow, *stats.Table, error) {
	labels := []string{"always-taken", "always-not-taken", "btfnt", "opcode-bias"}
	sums := make([]float64, len(labels))
	configs := s.Cfg.Configs()
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		evs := make([]*predict.Evaluator, len(labels))
		for i, l := range labels {
			evs[i] = &predict.Evaluator{P: newScheme(l, e, configs)}
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i := range labels {
			sums[i] += evs[i].S.Accuracy()
		}
	}
	t := stats.NewTable("Ablation: static baselines from the paper's related work",
		"Scheme", "Avg accuracy")
	var rows []StaticRow
	for i, l := range labels {
		r := StaticRow{Scheme: l, Accuracy: sums[i] / float64(len(names))}
		rows = append(rows, r)
		t.AddRow(r.Scheme, stats.Pct(r.Accuracy))
	}
	return rows, t, nil
}

// CycleRow compares the cycle-level simulation against the analytic model.
type CycleRow struct {
	Benchmark string
	Scheme    string
	Simulated float64 // cycles/branch from the cycle simulator
	Analytic  float64 // cost model with the simulator's effective config
}

// CycleCheck validates the analytic cost model against the cycle-level
// pipeline simulator (k=1, ℓ=1, m=2), filled from each scheme's Stats as
// scored by the suite: for each scheme, the simulated cycles/branch must
// equal the model evaluated at the simulation's effective m̄ (exactly —
// both count the same stalls).
func CycleCheck(s *Suite, names []string) ([]CycleRow, *stats.Table, error) {
	t := stats.NewTable("Ablation: cycle-level simulation vs analytic cost model (k=1, l=1, m=2)",
		"Benchmark", "Scheme", "Simulated", "Analytic", "Delta")
	var rows []CycleRow
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		results, err := e.Scored("sbtb", "cbtb", "fs")
		if err != nil {
			return nil, nil, fmt.Errorf("cycle: %w", err)
		}
		for i, label := range []string{"SBTB", "CBTB", "FS"} {
			res := results[i]
			cs := pipeline.NewCycleSim(1, 1, 2)
			cs.Add(res.Stats)
			r := CycleRow{Benchmark: name, Scheme: label,
				Simulated: cs.CostPerBranch(),
				Analytic:  cs.EffectiveConfig().Cost(res.Stats.Accuracy())}
			rows = append(rows, r)
			t.AddRow(name, label, stats.F3(r.Simulated), stats.F3(r.Analytic),
				fmt.Sprintf("%+.4f", r.Simulated-r.Analytic))
		}
	}
	return rows, t, nil
}

// ScalingRow reports the per-scheme relative cost increase from k+ℓ̄=2 to
// k+ℓ̄=3 (the paper's scalability observation: 7.7% SBTB, 6.9% CBTB, 5.3%
// FS — the Forward Semantic scales best).
type ScalingRow struct {
	Scheme   string
	Increase float64
}

// Scaling computes the paper's §3 pipelining-scalability comparison from
// Table 4's data.
func Scaling(s *Suite) ([]ScalingRow, *stats.Table, error) {
	rows4, _, err := Table4(s)
	if err != nil {
		return nil, nil, err
	}
	var inc [3]float64
	for _, r := range rows4 {
		inc[0] += (r.SBTB3 - r.SBTB2) / r.SBTB2
		inc[1] += (r.CBTB3 - r.CBTB2) / r.CBTB2
		inc[2] += (r.FS3 - r.FS2) / r.FS2
	}
	n := float64(len(rows4))
	labels := []string{"SBTB", "CBTB", "FS"}
	t := stats.NewTable("Scalability: average cost increase from k+l=2 to k+l=3",
		"Scheme", "Avg increase")
	var rows []ScalingRow
	for i, l := range labels {
		r := ScalingRow{Scheme: l, Increase: inc[i] / n}
		rows = append(rows, r)
		t.AddRow(l, stats.Pct(r.Increase))
	}
	return rows, t, nil
}

// OptRow quantifies the optimizer's effect on one benchmark.
type OptRow struct {
	Benchmark   string
	SizeBefore  int
	SizeAfter   int
	StepsBefore int64
	StepsAfter  int64
	CtlBefore   float64 // dynamic branch density before
	CtlAfter    float64
}

// Optimizer compares each benchmark compiled naively against the optimized
// compilation the suite uses (constant folding, copy propagation, dead
// writes, redundant loads). Branch accuracy is untouched — the branch
// stream is identical — but density moves toward the paper's ~1 branch per
// 4 instructions.
func Optimizer(names []string) ([]OptRow, *stats.Table, error) {
	t := stats.NewTable("Extension: optimizer impact (same branch stream, denser code)",
		"Benchmark", "Static size", "Dynamic steps", "Control before", "Control after")
	var rows []OptRow
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		raw, err := b.RawProgram()
		if err != nil {
			return nil, nil, err
		}
		op, err := b.Program()
		if err != nil {
			return nil, nil, err
		}
		r := OptRow{Benchmark: name, SizeBefore: len(raw.Code), SizeAfter: len(op.Code)}
		var brBefore, brAfter int64
		for run := 0; run < b.Runs; run++ {
			in := b.Input(run)
			res1, err := vm.Run(raw, in, nil, vm.Config{})
			if err != nil {
				return nil, nil, err
			}
			res2, err := vm.Run(op, in, nil, vm.Config{})
			if err != nil {
				return nil, nil, err
			}
			r.StepsBefore += res1.Steps
			r.StepsAfter += res2.Steps
			brBefore += res1.Branches
			brAfter += res2.Branches
		}
		if brBefore != brAfter {
			return nil, nil, fmt.Errorf("experiments: %s: optimizer changed the branch stream (%d -> %d)",
				name, brBefore, brAfter)
		}
		r.CtlBefore = float64(brBefore) / float64(r.StepsBefore)
		r.CtlAfter = float64(brAfter) / float64(r.StepsAfter)
		rows = append(rows, r)
		t.AddRow(name,
			fmt.Sprintf("%d -> %d", r.SizeBefore, r.SizeAfter),
			fmt.Sprintf("%s -> %s", stats.Count(r.StepsBefore), stats.Count(r.StepsAfter)),
			stats.Pct(r.CtlBefore), stats.Pct(r.CtlAfter))
	}
	return rows, t, nil
}

// TraceRow is one trace-selection configuration's effect.
type TraceRow struct {
	Label      string
	AFS        float64 // suite-average measured FS accuracy
	Growth     float64 // average code growth at k+l = 2
	Traces     float64 // average trace count
	Inversions float64
}

// TraceSelection varies the Hwu–Chang trace-growing parameters: the
// mutual-best test and the minimum arc-probability threshold. Prediction
// accuracy is threshold-insensitive (the likely bit depends only on the
// profile), but layout quality — inversions, fixups, code growth — moves.
func TraceSelection(s *Suite, names []string) ([]TraceRow, *stats.Table, error) {
	configs := []struct {
		label string
		sel   fs.SelectOptions
	}{
		{"mutual-best (default)", fs.SelectOptions{}},
		{"threshold 0.6", fs.SelectOptions{MinArcProb: 0.6}},
		{"threshold 0.8", fs.SelectOptions{MinArcProb: 0.8}},
		{"no mutual-best", fs.SelectOptions{NoMutualBest: true}},
		{"greedy + threshold 0.7", fs.SelectOptions{NoMutualBest: true, MinArcProb: 0.7}},
	}
	t := stats.NewTable("Ablation: trace-selection parameters (k+l = 2)",
		"Configuration", "A_FS", "Code growth", "Traces", "Inversions")
	// Score every layout's direction table in one replay of the suite's
	// trace per benchmark.
	rows := make([]TraceRow, len(configs))
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		evs := make([]*predict.Evaluator, len(configs))
		for i, cfg := range configs {
			res, err := fs.TransformOpts(e.Program, e.Profile, 2, cfg.sel)
			if err != nil {
				return nil, nil, err
			}
			evs[i] = &predict.Evaluator{P: res.Predictor(e.Program)}
			rows[i].Growth += res.CodeGrowth()
			rows[i].Traces += float64(res.NumTraces)
			rows[i].Inversions += float64(res.Inversions)
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i, ev := range evs {
			rows[i].AFS += ev.S.Accuracy()
		}
	}
	n := float64(len(names))
	for i, cfg := range configs {
		r := &rows[i]
		r.Label = cfg.label
		r.AFS /= n
		r.Growth /= n
		r.Traces /= n
		r.Inversions /= n
		t.AddRow(r.Label, stats.Pct(r.AFS), stats.Pct(r.Growth),
			fmt.Sprintf("%.1f", r.Traces), fmt.Sprintf("%.1f", r.Inversions))
	}
	return rows, t, nil
}
