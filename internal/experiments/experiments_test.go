package experiments_test

import (
	"math"
	"strings"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/workloads"
)

// suite is shared across tests; evaluation results are cached inside.
var suite = experiments.NewSuite(core.Config{})

func TestTable3Shape(t *testing.T) {
	rows, tbl, err := experiments.Table3(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(rows))
	}
	var sumS, sumC, sumF float64
	for _, r := range rows {
		if r.ASBTB < 0.5 || r.ASBTB > 1 || r.ACBTB < 0.5 || r.ACBTB > 1 || r.AFS < 0.5 || r.AFS > 1 {
			t.Errorf("%s: implausible accuracy S=%.3f C=%.3f F=%.3f", r.Benchmark, r.ASBTB, r.ACBTB, r.AFS)
		}
		// The paper's structural claim: the CBTB's miss ratio is orders of
		// magnitude below the SBTB's (all branches are cached, not just
		// taken ones).
		if r.RhoCBTB >= r.RhoSBTB {
			t.Errorf("%s: rho_CBTB %.4f >= rho_SBTB %.4f", r.Benchmark, r.RhoCBTB, r.RhoSBTB)
		}
		sumS += r.ASBTB
		sumC += r.ACBTB
		sumF += r.AFS
	}
	// Paper averages: A_SBTB 91.5%, A_CBTB 92.4%, A_FS 93.5% — FS wins on
	// average and CBTB beats SBTB.
	if !(sumF > sumS) {
		t.Errorf("A_FS average %.4f not above A_SBTB average %.4f", sumF/10, sumS/10)
	}
	if !(sumC > sumS) {
		t.Errorf("A_CBTB average %.4f not above A_SBTB average %.4f", sumC/10, sumS/10)
	}
}

func TestTables12(t *testing.T) {
	rows1, tbl1, err := experiments.Table1(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl1)
	for _, r := range rows1 {
		if r.ControlFrac < 0.05 || r.ControlFrac > 0.6 {
			t.Errorf("%s: control fraction %.2f out of range", r.Benchmark, r.ControlFrac)
		}
		if r.Insts < 100_000 {
			t.Errorf("%s: tiny workload %d", r.Benchmark, r.Insts)
		}
	}
	rows2, tbl2, err := experiments.Table2(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl2)
	// The paper's Table 2: the majority of conditional branches are
	// not-taken on average, and unconditional targets are nearly all known.
	var taken, known float64
	for _, r := range rows2 {
		taken += r.CondTaken
		known += r.UncondKnown
	}
	taken /= float64(len(rows2))
	known /= float64(len(rows2))
	if taken > 0.55 {
		t.Errorf("average conditional taken fraction %.2f; paper reports not-taken majority", taken)
	}
	if known < 0.80 {
		t.Errorf("average known-target fraction %.2f; paper reports ~98%%", known)
	}
}

func TestTable4CostOrdering(t *testing.T) {
	rows, tbl, err := experiments.Table4(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	var f2, s2, f3, s3 float64
	for _, r := range rows {
		if r.SBTB3 <= r.SBTB2 || r.CBTB3 <= r.CBTB2 || r.FS3 <= r.FS2 {
			t.Errorf("%s: cost must grow with pipeline depth", r.Benchmark)
		}
		f2 += r.FS2
		s2 += r.SBTB2
		f3 += r.FS3
		s3 += r.SBTB3
	}
	if f2 >= s2 || f3 >= s3 {
		t.Errorf("FS average cost (%.3f, %.3f) not below SBTB (%.3f, %.3f)",
			f2/10, f3/10, s2/10, s3/10)
	}
}

func TestTable5GrowthShape(t *testing.T) {
	rows, tbl, err := experiments.Table5(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(rows) != 12 {
		t.Fatalf("expected 12 rows (including eqn and espresso), got %d", len(rows))
	}
	for _, r := range rows {
		prev := 0.0
		for _, k := range experiments.Table5Slots {
			g := r.Growth[k]
			if g < prev {
				t.Errorf("%s: growth not monotone at k+l=%d", r.Benchmark, k)
			}
			if g > 2.0 {
				t.Errorf("%s: growth %.2f at k+l=%d implausibly large", r.Benchmark, g, k)
			}
			prev = g
		}
	}
}

func TestHeadlineAndScaling(t *testing.T) {
	rows, tbl, err := experiments.Headline(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range rows {
		if r.FS >= r.SBTB {
			t.Errorf("%s: FS cost %.3f not below SBTB %.3f", r.Label, r.FS, r.SBTB)
		}
	}
	srows, stbl, err := experiments.Scaling(suite)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", stbl)
	// Paper: FS scales best (5.3% < CBTB 6.9% < SBTB 7.7%).
	if !(srows[2].Increase < srows[0].Increase) {
		t.Errorf("FS increase %.3f not below SBTB %.3f", srows[2].Increase, srows[0].Increase)
	}
}

func TestAnalyticMatchesMeasuredFS(t *testing.T) {
	evals, err := suite.EvalPrimary()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		diff := e.FS().Stats.Accuracy() - e.AnalyticFS
		if diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: measured A_FS %.6f != analytic %.6f", e.Name,
				e.FS().Stats.Accuracy(), e.AnalyticFS)
		}
	}
}

func TestFigureSeries(t *testing.T) {
	series, text, err := experiments.Figure(suite, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", text)
	if len(series) != 3 {
		t.Fatalf("expected 3 series, got %d", len(series))
	}
	for _, sr := range series {
		for i := 1; i < len(sr.Points); i++ {
			if sr.Points[i].Cost <= sr.Points[i-1].Cost {
				t.Errorf("%s: cost curve not increasing", sr.Scheme)
			}
		}
	}
	// At every point the FS curve must lie below the SBTB curve (its
	// accuracy is higher on average), matching the figures' visual.
	for i := range series[0].Points {
		if series[2].Points[i].Cost > series[0].Points[i].Cost {
			t.Errorf("FS above SBTB at point %d", i)
		}
	}
}

func TestCrossValShape(t *testing.T) {
	rows, tbl, err := experiments.CrossVal(suite, []string{"wc", "grep"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Held-out accuracy can only degrade relative to self-profiling
		// (up to noise), and must stay in a plausible band.
		if r.CrossAFS > r.SelfAFS+0.02 {
			t.Errorf("%s: cross %.3f above self %.3f", r.Benchmark, r.CrossAFS, r.SelfAFS)
		}
		if r.CrossAFS < 0.5 {
			t.Errorf("%s: cross-validated accuracy collapsed: %.3f", r.Benchmark, r.CrossAFS)
		}
	}
}

// TestCrossValSchemeConfigs: CrossVal evaluates under the caller's suite
// configuration, so a 16-entry direct-mapped SBTB moves wc's cross row to
// exactly what a direct core.Evaluate under that configuration gives.
func TestCrossValSchemeConfigs(t *testing.T) {
	configs := predict.ConfigSet{
		"sbtb": predict.SBTBConfig{BTBGeometry: predict.BTBGeometry{Entries: 16, Assoc: 1}},
	}
	paper, _, err := experiments.CrossVal(suite, []string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := experiments.CrossVal(experiments.NewSuite(core.Config{SchemeConfigs: configs}), []string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var train, test [][]byte
	for run := 0; run < b.Runs; run++ {
		if run%2 == 0 {
			train = append(train, b.Input(run))
		} else {
			test = append(test, b.Input(run))
		}
	}
	e, err := core.Evaluate("wc", prog, train, test, core.Config{SchemeConfigs: configs})
	if err != nil {
		t.Fatal(err)
	}
	if want := e.SBTB().Stats.Accuracy(); small[0].CrossSBTB != want {
		t.Errorf("16-entry direct-mapped A_SBTB cross %v, want %v from core.Evaluate", small[0].CrossSBTB, want)
	}
	if small[0].CrossSBTB == paper[0].CrossSBTB {
		t.Errorf("16-entry direct-mapped A_SBTB cross %v equals the paper-config row", small[0].CrossSBTB)
	}
}

func TestDelayedBranchShape(t *testing.T) {
	rows, tbl, err := experiments.DelayedBranch(suite, []string{"wc", "compress", "cccp"}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range rows {
		// McFarling–Hennessy's shape: the first slot fills from before the
		// branch much more often than the second.
		if r.FillSlot1 <= r.FillSlot2 {
			t.Errorf("%s: fill rates not decreasing (%.2f <= %.2f)",
				r.Benchmark, r.FillSlot1, r.FillSlot2)
		}
		// The paper's argument: the Forward Semantic is at least as good as
		// delayed branches with squashing at the same depth.
		if r.FSCost > r.DelayCost+1e-9 {
			t.Errorf("%s: FS cost %.3f above delayed-branch cost %.3f",
				r.Benchmark, r.FSCost, r.DelayCost)
		}
	}
}

func TestICacheLocalityClaim(t *testing.T) {
	rows, tbl, err := experiments.ICache(suite, []string{"yacc", "cccp"}, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range rows {
		// The paper's claim: code expansion does not translate linearly
		// into I-cache miss growth. Require miss growth strictly below the
		// code growth at every point.
		missGrowth := 0.0
		if r.MissOrig > 0 {
			missGrowth = r.MissFS/r.MissOrig - 1
		}
		if missGrowth >= r.Growth {
			t.Errorf("%s k+l=%d: miss growth %.1f%% >= code growth %.1f%%",
				r.Benchmark, r.Slots, 100*missGrowth, 100*r.Growth)
		}
	}
}

// Ablation shape tests run on a two-benchmark subset to stay fast; the
// claims they check are scale-free.
var ablNames = []string{"wc", "compress"}

func TestCounterSweepShape(t *testing.T) {
	rows, tbl, err := experiments.CounterSweep(suite, ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	// 2 bits must improve on 1 bit (Smith); beyond 2 bits the gain is
	// marginal (less than the 1->2 step).
	gain12 := rows[1].Accuracy - rows[0].Accuracy
	if gain12 <= 0 {
		t.Errorf("2-bit counter not better than 1-bit: %+v", rows)
	}
	for i := 2; i < len(rows); i++ {
		step := rows[i].Accuracy - rows[i-1].Accuracy
		if step > gain12 {
			t.Errorf("bits %d gained %.4f > the 1->2 gain %.4f", rows[i].Bits, step, gain12)
		}
	}
}

func TestSizeSweepShape(t *testing.T) {
	rows, tbl, err := experiments.SizeSweep(suite, ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for i := 1; i < len(rows); i++ {
		if rows[i].CBTBAcc < rows[i-1].CBTBAcc-1e-9 {
			t.Errorf("CBTB accuracy fell when growing from %d to %d entries",
				rows[i-1].Entries, rows[i].Entries)
		}
		if rows[i].CBTBMiss > rows[i-1].CBTBMiss+1e-9 {
			t.Errorf("CBTB miss ratio rose with capacity")
		}
	}
}

func TestAssocSweepShape(t *testing.T) {
	rows, tbl, err := experiments.AssocSweep(suite, ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	full := rows[len(rows)-1]
	direct := rows[0]
	if full.CBTBAcc < direct.CBTBAcc-1e-9 {
		t.Errorf("full associativity worse than direct-mapped: %+v", rows)
	}
	// The paper's "biased slightly": the gap should be small (< 5 points).
	if full.CBTBAcc-direct.CBTBAcc > 0.05 {
		t.Errorf("associativity gap implausibly large: %.4f", full.CBTBAcc-direct.CBTBAcc)
	}
}

func TestStaticSchemesShape(t *testing.T) {
	rows, tbl, err := experiments.StaticSchemes(suite, ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Scheme] = r.Accuracy
	}
	// BTFNT beats both trivial schemes (Smith's observation) and
	// always-taken + always-not-taken partition direction accuracy, so
	// both sit well below 1.
	if byName["btfnt"] <= byName["always-taken"] || byName["btfnt"] <= byName["always-not-taken"] {
		t.Errorf("BTFNT not the best static baseline: %v", byName)
	}
}

func TestContextSwitchShape(t *testing.T) {
	rows, tbl, err := experiments.ContextSwitch(suite, ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	base := rows[0]
	for _, r := range rows[1:] {
		if r.FSAcc != base.FSAcc {
			t.Errorf("FS accuracy changed under flushing: %v vs %v", r.FSAcc, base.FSAcc)
		}
		if r.SBTBAcc > base.SBTBAcc+1e-9 {
			t.Errorf("SBTB improved under flushing at period %d", r.FlushEvery)
		}
	}
	last := rows[len(rows)-1]
	if !(last.SBTBAcc < base.SBTBAcc) || !(last.CBTBAcc < base.CBTBAcc) {
		t.Errorf("hardware schemes did not degrade at the shortest period")
	}
}

// TestCycleCheck: the cycle ablation reads the caller's suite, so its rows
// follow the suite's scheme configuration, and every row's simulated cost
// equals the analytic model at the simulation's effective m̄ exactly.
func TestCycleCheck(t *testing.T) {
	paper, _, err := experiments.CycleCheck(suite, []string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	small := experiments.NewSuite(core.Config{SchemeConfigs: predict.ConfigSet{
		"sbtb": predict.SBTBConfig{BTBGeometry: predict.BTBGeometry{Entries: 16, Assoc: 1}},
	}})
	rows, _, err := experiments.CycleCheck(small, []string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(paper, rows...) {
		if math.Abs(r.Simulated-r.Analytic) > 1e-9 {
			t.Errorf("%s %s: simulated %v != analytic %v", r.Benchmark, r.Scheme, r.Simulated, r.Analytic)
		}
	}
	e, err := small.Eval("wc")
	if err != nil {
		t.Fatal(err)
	}
	cs := pipeline.NewCycleSim(1, 1, 2)
	cs.Add(e.SBTB().Stats)
	if rows[0].Scheme != "SBTB" || rows[0].Simulated != cs.CostPerBranch() {
		t.Errorf("SBTB row %+v, want simulated cost %v from the suite's Stats", rows[0], cs.CostPerBranch())
	}
	if rows[0].Simulated == paper[0].Simulated {
		t.Errorf("16-entry direct-mapped SBTB row %v equals the paper-config row", rows[0].Simulated)
	}

	noFS := experiments.NewSuite(core.Config{Schemes: []string{"sbtb", "cbtb"}})
	if _, _, err := experiments.CycleCheck(noFS, []string{"wc"}); err == nil || !strings.Contains(err.Error(), "wc") {
		t.Errorf("suite without fs: err = %v, want an error naming wc", err)
	}
}

func TestOptimizerAblation(t *testing.T) {
	rows, tbl, err := experiments.Optimizer(ablNames)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range rows {
		if r.SizeAfter >= r.SizeBefore {
			t.Errorf("%s: no static shrink", r.Benchmark)
		}
		if r.StepsAfter >= r.StepsBefore {
			t.Errorf("%s: no dynamic shrink", r.Benchmark)
		}
		if r.CtlAfter < r.CtlBefore {
			t.Errorf("%s: control density fell", r.Benchmark)
		}
	}
}

func TestSuperscalarShape(t *testing.T) {
	rows, tbl, err := experiments.Superscalar(suite, []string{"wc", "compress"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	// Index rows by (width, scheme).
	get := func(w int, sc string) experiments.SuperscalarRow {
		for _, r := range rows {
			if r.Width == w && r.Scheme == sc {
				return r
			}
		}
		t.Fatalf("row %d/%s missing", w, sc)
		return experiments.SuperscalarRow{}
	}
	// The FS IPC advantage over the SBTB must grow with width.
	prevAdv := 0.0
	for _, w := range []int{1, 2, 4, 8} {
		fs, sbtb := get(w, "FS"), get(w, "SBTB")
		if fs.IPC < sbtb.IPC {
			t.Errorf("width %d: FS IPC %.3f below SBTB %.3f", w, fs.IPC, sbtb.IPC)
		}
		adv := fs.IPC/sbtb.IPC - 1
		if adv+1e-9 < prevAdv {
			t.Errorf("width %d: FS advantage shrank: %.4f < %.4f", w, adv, prevAdv)
		}
		prevAdv = adv
		// Utilization falls with width for every scheme.
		if w > 1 {
			if get(w, "FS").Util >= get(1, "FS").Util {
				t.Errorf("width %d: utilization did not fall", w)
			}
		}
	}
}

func TestHardwareCostShape(t *testing.T) {
	rows, tbl, err := experiments.HardwareCost(suite, []string{"wc", "compress"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for i := 1; i < len(rows); i++ {
		// BTB storage grows linearly with k (the paper's closing claim).
		if rows[i].BTBKBits <= rows[i-1].BTBKBits {
			t.Errorf("BTB bits not increasing at k=%d", rows[i].K)
		}
		if rows[i].FSGrowthFrac <= rows[i-1].FSGrowthFrac {
			t.Errorf("FS growth not increasing at k=%d", rows[i].K)
		}
	}
	// Exact linearity of the BTB model: d(bits)/dk is constant.
	d1 := rows[1].BTBKBits - rows[0].BTBKBits
	d2 := (rows[3].BTBKBits - rows[2].BTBKBits) / 4
	if d1 != rows[1].BTBKBits-rows[0].BTBKBits || d2 != d1 {
		t.Errorf("BTB storage not linear in k: %v", rows)
	}
}

func TestSensitivityShape(t *testing.T) {
	rows, tbl, err := experiments.Sensitivity([]string{"wc", "compress"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range rows {
		if len(r.AFS) != 2 {
			t.Fatalf("%s: wrong suite count", r.Benchmark)
		}
		// Independent input suites must not swing the headline accuracy by
		// more than a few points (the branch behaviour is a property of the
		// program, not the particular inputs).
		if r.SpreadFS > 0.05 {
			t.Errorf("%s: A_FS spread %.3f across suites — conclusions input-sensitive", r.Benchmark, r.SpreadFS)
		}
		if r.SpreadCB > 0.05 {
			t.Errorf("%s: A_CBTB spread %.3f across suites", r.Benchmark, r.SpreadCB)
		}
	}
}

func TestTraceSelectionShape(t *testing.T) {
	rows, tbl, err := experiments.TraceSelection(suite, []string{"wc", "make"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	base := rows[0]
	for _, r := range rows[1:] {
		// Prediction accuracy must be invariant under layout choices: the
		// likely bit is a pure function of the profile.
		if d := r.AFS - base.AFS; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: A_FS moved with trace selection (%.6f vs %.6f)",
				r.Label, r.AFS, base.AFS)
		}
	}
	// Stricter thresholds produce more (shorter) traces and more code
	// growth.
	var th06, th08 experiments.TraceRow
	for _, r := range rows {
		switch r.Label {
		case "threshold 0.6":
			th06 = r
		case "threshold 0.8":
			th08 = r
		}
	}
	if !(th08.Traces >= th06.Traces && th06.Traces >= base.Traces) {
		t.Errorf("trace counts not monotone with threshold: %v %v %v",
			base.Traces, th06.Traces, th08.Traces)
	}
	if !(th08.Growth >= base.Growth) {
		t.Errorf("growth did not rise with stricter threshold")
	}
}

func TestFigureAllPanels(t *testing.T) {
	// All four panels of Figures 3 and 4 (k = 1, 2, 4, 8): curves grow
	// linearly in l+m with slope (1-A) and the SBTB sits on top.
	for _, k := range []int{2, 4, 8} {
		series, text, err := experiments.Figure(suite, k, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(text) == 0 {
			t.Fatal("empty rendering")
		}
		for _, sr := range series {
			// Linearity: constant first differences.
			d := sr.Points[1].Cost - sr.Points[0].Cost
			for i := 2; i < len(sr.Points); i++ {
				step := sr.Points[i].Cost - sr.Points[i-1].Cost
				if diff := step - d; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("k=%d %s: curve not linear at point %d", k, sr.Scheme, i)
				}
			}
		}
		// SBTB (series 0) on top at the deep end.
		last := len(series[0].Points) - 1
		if !(series[0].Points[last].Cost >= series[1].Points[last].Cost &&
			series[0].Points[last].Cost >= series[2].Points[last].Cost) {
			t.Errorf("k=%d: SBTB not the most expensive at l+m=8", k)
		}
	}
}
