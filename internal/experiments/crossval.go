package experiments

import (
	"fmt"

	"branchcost/internal/core"
	"branchcost/internal/delay"
	"branchcost/internal/pipeline"
	"branchcost/internal/stats"
)

// CrossValRow compares self-profiled A_FS (the paper's methodology:
// profiling inputs = evaluation inputs) with cross-validated A_FS
// (profile on even-indexed runs, evaluate on odd-indexed runs).
type CrossValRow struct {
	Benchmark string
	SelfAFS   float64
	CrossAFS  float64
	CrossSBTB float64 // hardware reference on the same held-out runs
	CrossCBTB float64
}

// CrossVal quantifies how much of the Forward Semantic's accuracy depends
// on evaluating with the training inputs — the obvious methodological
// question about the paper's §4 "exact same benchmarks with the same
// inputs" setup. It evaluates the paper's three schemes under the suite's
// scheme configurations, step budget and slot depth, without a corpus: the
// input halves are not the suite's inputs. Benchmarks with a single run
// cannot be split and are skipped.
func CrossVal(s *Suite, names []string) ([]CrossValRow, *stats.Table, error) {
	t := stats.NewTable("Extension: self-profiled vs cross-validated accuracy (train even runs, test odd runs)",
		"Benchmark", "A_FS self", "A_FS cross", "A_SBTB cross", "A_CBTB cross")
	cfg := core.Config{
		SchemeConfigs: s.Cfg.SchemeConfigs,
		MaxVMSteps:    s.Cfg.MaxVMSteps,
		EvalSlots:     s.Cfg.EvalSlots,
	}
	var rows []CrossValRow
	for _, name := range names {
		b, err := s.lookup(name)
		if err != nil {
			return nil, nil, err
		}
		if b.Runs < 2 {
			continue
		}
		prog, err := b.Program()
		if err != nil {
			return nil, nil, err
		}
		var train, test [][]byte
		for run := 0; run < b.Runs; run++ {
			if run%2 == 0 {
				train = append(train, b.Input(run))
			} else {
				test = append(test, b.Input(run))
			}
		}
		self, err := core.Evaluate(name, prog, test, test, cfg)
		if err != nil {
			return nil, nil, err
		}
		cross, err := core.Evaluate(name, prog, train, test, cfg)
		if err != nil {
			return nil, nil, err
		}
		r := CrossValRow{
			Benchmark: name,
			SelfAFS:   self.FS().Stats.Accuracy(),
			CrossAFS:  cross.FS().Stats.Accuracy(),
			CrossSBTB: cross.SBTB().Stats.Accuracy(),
			CrossCBTB: cross.CBTB().Stats.Accuracy(),
		}
		rows = append(rows, r)
		t.AddRow(name, stats.Pct(r.SelfAFS), stats.Pct(r.CrossAFS),
			stats.Pct(r.CrossSBTB), stats.Pct(r.CrossCBTB))
	}
	return rows, t, nil
}

// DelayRow compares the Forward Semantic against delayed branches with
// squashing (McFarling–Hennessy 1986), the scheme the paper's §2.2
// discusses, at one pipeline operating point.
type DelayRow struct {
	Benchmark string
	FillSlot1 float64 // dynamic fraction of first slots filled from before
	FillSlot2 float64
	DelayCost float64 // cycles/branch for the delayed-branch scheme
	FSCost    float64 // Forward Semantic at the same operating point
}

// DelayedBranch runs the delayed-branch comparison with d = k+ℓ slots and
// the given pipeline point (m̄ applies to mispredicted conditionals).
func DelayedBranch(s *Suite, names []string, d int, mbar float64) ([]DelayRow, *stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Extension: delayed branch with squashing (d=%d slots) vs Forward Semantic", d),
		"Benchmark", "fill slot1", "fill slot2", "delay cost", "FS cost")
	var rows []DelayRow
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		fillStats := delay.Analyze(e.Program, e.Profile, d)
		a := e.FS().Stats.Accuracy() // both schemes predict with the likely bit
		cost := fillStats.Cost(a, mbar)
		fsCfg := pipeline.Config{K: 1, LBar: float64(d - 1), MBar: mbar}
		fsCost := fsCfg.Cost(a)
		r := DelayRow{
			Benchmark: name,
			FillSlot1: fillStats.DynBeforeFillRate(0),
			DelayCost: cost,
			FSCost:    fsCost,
		}
		if d > 1 {
			r.FillSlot2 = fillStats.DynBeforeFillRate(1)
		}
		rows = append(rows, r)
		t.AddRow(name, stats.Pct(r.FillSlot1), stats.Pct(r.FillSlot2),
			stats.F3(r.DelayCost), stats.F3(r.FSCost))
	}
	return rows, t, nil
}
