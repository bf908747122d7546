package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"branchcost/internal/core"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// Frontend stage depths: the paper's baseline fetch/decode split with a
// two-stage execute.
const (
	frontendK = 1
	frontendL = 2
	frontendM = 2
)

// FrontendWidths is the fetch-width axis of the frontend sweep.
var FrontendWidths = []int{1, 2, 4, 8}

// FrontendSchemes is the scheme axis: the paper's hardware schemes, the
// two-level BTB extension, the history-based predictor zoo, and the Forward
// Semantic software scheme.
var FrontendSchemes = []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage", "fs"}

// FrontendRow is one (width, scheme) point of the frontend sweep, averaged
// over benchmarks: the trace-driven simulation's cost per branch and IPC
// next to the two calibrated analytic frontend models.
type FrontendRow struct {
	Width    int
	Scheme   string
	Accuracy float64
	SimCost  float64 // pipesim cycles per branch
	SSCost   float64 // calibrated pipeline.Superscalar model
	VFCost   float64 // calibrated pipeline.VariableFetch model
	Util     float64 // fetch-slot utilization
	IPC      float64 // right-path instructions per cycle
}

// FrontendCheckRow is one benchmark's model-vs-simulation agreement record
// at one (width, scheme) point. OK reports |SimCost − SSCost| ≤ Tolerance,
// the provable bound pipesim.Sim.ModelTolerance derives for its own run
// (exact at W = 1, alignment-bounded at W > 1).
type FrontendCheckRow struct {
	Benchmark string
	Width     int
	Scheme    string
	SimCost   float64
	SSCost    float64
	Err       float64
	Tolerance float64
	OK        bool
}

// frontendSims builds one benchmark's trace-driven simulators, indexed
// [scheme][width]. Each scheme's evaluator drives every width through one
// pipesim.TraceObserver. The hardware schemes replay the original binary's
// trace; FS replays the transformed binary's, recorded here from the
// suite's inputs under its step budget.
func frontendSims(s *Suite, e *core.Eval, widths []int) ([][]*pipesim.Sim, error) {
	var sims [][]*pipesim.Sim
	var observers []*pipesim.Traced
	evaluator := func(p predict.Predictor, prog *isa.Program, tr *tracefile.Trace) *predict.Evaluator {
		ws := make([]*pipesim.Sim, len(widths))
		for i, w := range widths {
			ws[i] = pipesim.New(w, frontendK, frontendL, frontendM)
		}
		sims = append(sims, ws)
		obs := pipesim.TraceObserver(prog, tr, ws...)
		observers = append(observers, obs)
		return &predict.Evaluator{P: p, Obs: obs}
	}

	var hw []*predict.Evaluator
	for _, name := range FrontendSchemes {
		if name != "fs" {
			sc, ok := predict.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("frontend: unknown scheme %q", name)
			}
			p := sc.New(predict.SchemeContext{Prog: e.Program, Profile: e.Profile, Configs: s.Cfg.SchemeConfigs})
			hw = append(hw, evaluator(p, e.Program, e.Trace))
			continue
		}
		// The FS scheme replays the transformed binary's own stream; reuse
		// the evaluation's transform when present, else materialize the
		// paper's.
		fsRes := e.FSResult
		if fsRes == nil {
			var err error
			if fsRes, err = fs.Transform(e.Program, e.Profile, 2); err != nil {
				return nil, err
			}
		}
		b, err := s.lookup(e.Name)
		if err != nil {
			return nil, err
		}
		fsTrace, err := tracefile.RecordConfig(context.Background(), fsRes.Prog, b.Inputs(), vm.Config{MaxSteps: s.Cfg.MaxVMSteps})
		if err != nil {
			return nil, err
		}
		ev := evaluator(predict.LikelyBit{Targets: predict.ProgramTargets{Prog: fsRes.Prog}}, fsRes.Prog, fsTrace)
		fsTrace.Replay(ev.Hook())
	}
	if err := tracefile.Score(context.Background(), e.Trace, hw); err != nil {
		return nil, err
	}
	for _, obs := range observers {
		if err := obs.Finish(); err != nil {
			return nil, err
		}
	}
	return sims, nil
}

// eachFrontendSim simulates every named benchmark and calls f for each
// simulator with its point's index i among one benchmark's (width, scheme)
// points, width-major in FrontendSchemes order.
func eachFrontendSim(s *Suite, names []string, widths []int, f func(i int, name string, w int, scheme string, sim *pipesim.Sim)) error {
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return err
		}
		sims, err := frontendSims(s, e, widths)
		if err != nil {
			return fmt.Errorf("frontend: %s: %w", name, err)
		}
		for j, w := range widths {
			for k, sc := range FrontendSchemes {
				f(j*len(FrontendSchemes)+k, name, w, strings.ToUpper(sc), sims[k][j])
			}
		}
	}
	return nil
}

// FrontendSweep replays every benchmark's recorded streams through the
// trace-driven pipeline simulator at each fetch width and reports, per
// (width, scheme), the simulated cost per branch, fetch utilization and IPC
// next to the two calibrated frontend cost models. As fetch widens, branch
// handling gates instruction supply and the scheme gap widens — the
// observation behind the authors' later superblock work. Averages are
// unweighted across benchmarks, like the paper's tables.
func FrontendSweep(s *Suite, names []string, widths []int) ([]FrontendRow, *stats.Table, error) {
	if len(widths) == 0 {
		widths = FrontendWidths
	}
	rows := make([]FrontendRow, len(widths)*len(FrontendSchemes))
	if err := eachFrontendSim(s, names, widths, func(i int, _ string, w int, sc string, sim *pipesim.Sim) {
		r, a := &rows[i], sim.Accuracy()
		r.Width, r.Scheme = w, sc
		r.Accuracy += a
		r.SimCost += sim.CostPerBranch()
		r.SSCost += sim.Superscalar().Cost(a)
		r.VFCost += sim.VariableFetch().Cost(a)
		r.Util += sim.FetchUtilization()
		r.IPC += sim.IPC()
	}); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Frontend sweep: cost per branch vs fetch width (k=%d, l=%d, m=%d)",
			frontendK, frontendL, frontendM),
		"W", "Scheme", "Accuracy", "Sim cost", "SS model", "VF model", "Util", "IPC")
	if len(names) == 0 {
		return nil, t, nil
	}
	n := float64(len(names))
	for i := range rows {
		r := &rows[i]
		r.Accuracy, r.SimCost, r.SSCost, r.VFCost = r.Accuracy/n, r.SimCost/n, r.SSCost/n, r.VFCost/n
		r.Util, r.IPC = r.Util/n, r.IPC/n
		t.AddRow(fmt.Sprintf("%d", r.Width), r.Scheme,
			fmt.Sprintf("%.4f", r.Accuracy), fmt.Sprintf("%.3f", r.SimCost),
			fmt.Sprintf("%.3f", r.SSCost), fmt.Sprintf("%.3f", r.VFCost),
			fmt.Sprintf("%.3f", r.Util), fmt.Sprintf("%.3f", r.IPC))
	}
	return rows, t, nil
}

// FrontendCheck asserts model-vs-simulation agreement per benchmark at
// every (width, scheme) point: the calibrated Superscalar model must land
// within each run's own provable tolerance (pipesim.Sim.ModelTolerance —
// exactly 1e-9 at W = 1, where the model degenerates to the paper's
// analytic identity; BreakRate·(W−1)/(2W) + O(1/Branches) at wider fetch).
// A non-nil error reports every violated point.
func FrontendCheck(s *Suite, names []string, widths []int) ([]FrontendCheckRow, *stats.Table, error) {
	if len(widths) == 0 {
		widths = FrontendWidths
	}
	var rows []FrontendCheckRow
	var bad []string
	t := stats.NewTable(
		fmt.Sprintf("Frontend check: |sim − model| within per-run tolerance (k=%d, l=%d, m=%d)",
			frontendK, frontendL, frontendM),
		"Benchmark", "W", "Scheme", "Sim cost", "Model", "|err|", "Tol", "OK")
	if err := eachFrontendSim(s, names, widths, func(_ int, name string, w int, sc string, sim *pipesim.Sim) {
		r := FrontendCheckRow{
			Benchmark: name, Width: w, Scheme: sc,
			SimCost: sim.CostPerBranch(), SSCost: sim.Superscalar().Cost(sim.Accuracy()),
			Tolerance: sim.ModelTolerance(),
		}
		r.Err = math.Abs(r.SimCost - r.SSCost)
		r.OK = r.Err <= r.Tolerance
		rows = append(rows, r)
		ok := "yes"
		if !r.OK {
			ok = "NO"
			bad = append(bad, fmt.Sprintf("%s W=%d %s: |%.6f-%.6f|=%.6f > %.6f",
				name, w, r.Scheme, r.SimCost, r.SSCost, r.Err, r.Tolerance))
		}
		t.AddRow(name, fmt.Sprintf("%d", w), r.Scheme,
			fmt.Sprintf("%.4f", r.SimCost), fmt.Sprintf("%.4f", r.SSCost),
			fmt.Sprintf("%.2e", r.Err), fmt.Sprintf("%.2e", r.Tolerance), ok)
	}); err != nil {
		return nil, nil, err
	}
	if len(bad) > 0 {
		return rows, t, fmt.Errorf("frontend check failed at %d point(s):\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	return rows, t, nil
}
