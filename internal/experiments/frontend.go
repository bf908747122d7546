package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchcost/internal/core"
	"branchcost/internal/fs"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// Frontend stage depths: the paper's baseline fetch/decode split with a
// two-stage execute, shared with the Superscalar experiment so the two
// views of the same machine agree.
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
// over benchmarks: the trace-driven simulation cost per branch next to the
// two calibrated analytic frontend models.
type FrontendRow struct {
	Width    int
	Scheme   string
	Accuracy float64
	SimCost  float64 // pipesim cycles per branch
	SSCost   float64 // calibrated pipeline.Superscalar model
	VFCost   float64 // calibrated pipeline.VariableFetch model
	Util     float64 // fetch-slot utilization
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

// frontendSims builds one trace-driven simulator per (width, scheme) for a
// benchmark. Each scheme gets one evaluator, and every width's simulator
// observes it (predict.Observers), so a scheme predicts each branch once
// however many widths are swept. The recorded streams replay in two
// passes: the original binary's trace for the hardware schemes, and —
// recorded here, once — the transformed binary's trace for the FS scheme.
// No per-width live VM pass runs; width only changes how the same stream
// is packed into fetch groups.
func frontendSims(e *core.Eval, configs predict.ConfigSet, widths []int, schemes []string) (map[int]map[string]*pipesim.Sim, error) {
	sims := make(map[int]map[string]*pipesim.Sim, len(widths))
	for _, w := range widths {
		sims[w] = make(map[string]*pipesim.Sim, len(schemes))
	}
	evaluator := func(name string, p predict.Predictor) *predict.Evaluator {
		obs := make(predict.Observers, len(widths))
		for i, w := range widths {
			sim := pipesim.New(w, frontendK, frontendL, frontendM)
			sims[w][name] = sim
			obs[i] = sim.TraceObserver()
		}
		return &predict.Evaluator{P: p, Obs: obs}
	}

	var hw []*predict.Evaluator
	var fsEv *predict.Evaluator
	var fsRes *fs.Result
	for _, name := range schemes {
		if name == "fs" {
			// The FS scheme replays the transformed binary's own stream;
			// reuse the evaluation's transform when present, else
			// materialize the paper's.
			if fsRes = e.FSResult; fsRes == nil {
				var err error
				if fsRes, err = fs.Transform(e.Program, e.Profile, 2); err != nil {
					return nil, err
				}
			}
			fsEv = evaluator(name, predict.LikelyBit{Targets: predict.ProgramTargets{Prog: fsRes.Prog}})
			continue
		}
		sc, ok := predict.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("frontend: unknown scheme %q", name)
		}
		hw = append(hw, evaluator(name, sc.New(predict.SchemeContext{Prog: e.Program, Profile: e.Profile, Configs: configs})))
	}
	if len(hw) > 0 {
		if err := tracefile.Score(context.Background(), e.Trace, hw); err != nil {
			return nil, err
		}
	}
	if fsEv != nil {
		b, err := workloads.ByName(e.Name)
		if err != nil {
			return nil, err
		}
		fsTrace, err := tracefile.Record(fsRes.Prog, b.Inputs())
		if err != nil {
			return nil, err
		}
		fsTrace.Replay(fsEv.Hook())
	}
	return sims, nil
}

// FrontendSweep replays every benchmark's recorded streams through the
// trace-driven pipeline simulator at each fetch width and reports, per
// (width, scheme), the simulated cost per branch next to the two calibrated
// frontend cost models — the Table 4/5-style view of how each scheme's
// advantage scales with fetch width. Averages are unweighted across
// benchmarks, like the paper's tables.
func FrontendSweep(s *Suite, names []string, widths []int) ([]FrontendRow, *stats.Table, error) {
	if len(widths) == 0 {
		widths = FrontendWidths
	}
	type agg struct {
		acc, sim, ss, vf, util float64
		n                      int
	}
	res := map[int]map[string]*agg{}
	for _, w := range widths {
		res[w] = map[string]*agg{}
		for _, sc := range FrontendSchemes {
			res[w][sc] = &agg{}
		}
	}
	configs := s.Cfg.Configs()
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		sims, err := frontendSims(e, configs, widths, FrontendSchemes)
		if err != nil {
			return nil, nil, fmt.Errorf("frontend: %s: %w", name, err)
		}
		for _, w := range widths {
			for _, sc := range FrontendSchemes {
				sim := sims[w][sc]
				a := res[w][sc]
				a.acc += sim.Accuracy()
				a.sim += sim.CostPerBranch()
				a.ss += sim.Superscalar().Cost(sim.Accuracy())
				a.vf += sim.VariableFetch().Cost(sim.Accuracy())
				a.util += sim.FetchUtilization()
				a.n++
			}
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Frontend sweep: cost per branch vs fetch width (k=%d, l=%d, m=%d)",
			frontendK, frontendL, frontendM),
		"W", "Scheme", "Accuracy", "Sim cost", "SS model", "VF model", "Util")
	var rows []FrontendRow
	for _, w := range widths {
		for _, sc := range FrontendSchemes {
			a := res[w][sc]
			if a.n == 0 {
				continue
			}
			n := float64(a.n)
			r := FrontendRow{
				Width: w, Scheme: strings.ToUpper(sc),
				Accuracy: a.acc / n, SimCost: a.sim / n,
				SSCost: a.ss / n, VFCost: a.vf / n, Util: a.util / n,
			}
			rows = append(rows, r)
			t.AddRow(fmt.Sprintf("%d", w), r.Scheme,
				fmt.Sprintf("%.4f", r.Accuracy), fmt.Sprintf("%.3f", r.SimCost),
				fmt.Sprintf("%.3f", r.SSCost), fmt.Sprintf("%.3f", r.VFCost),
				fmt.Sprintf("%.3f", r.Util))
		}
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
	configs := s.Cfg.Configs()
	var rows []FrontendCheckRow
	var bad []string
	t := stats.NewTable(
		fmt.Sprintf("Frontend check: |sim − model| within per-run tolerance (k=%d, l=%d, m=%d)",
			frontendK, frontendL, frontendM),
		"Benchmark", "W", "Scheme", "Sim cost", "Model", "|err|", "Tol", "OK")
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		sims, err := frontendSims(e, configs, widths, FrontendSchemes)
		if err != nil {
			return nil, nil, fmt.Errorf("frontend: %s: %w", name, err)
		}
		for _, w := range widths {
			for _, sc := range FrontendSchemes {
				sim := sims[w][sc]
				model := sim.Superscalar().Cost(sim.Accuracy())
				r := FrontendCheckRow{
					Benchmark: name, Width: w, Scheme: strings.ToUpper(sc),
					SimCost: sim.CostPerBranch(), SSCost: model,
					Tolerance: sim.ModelTolerance(),
				}
				r.Err = r.SimCost - r.SSCost
				if r.Err < 0 {
					r.Err = -r.Err
				}
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
			}
		}
	}
	if len(bad) > 0 {
		return rows, t, fmt.Errorf("frontend check failed at %d point(s):\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	return rows, t, nil
}
