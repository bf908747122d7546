package experiments

import (
	"fmt"

	"branchcost/internal/btb"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// SuperscalarRow is one (width, scheme) point of the width sweep.
type SuperscalarRow struct {
	Width  int
	Scheme string
	IPC    float64
	Util   float64 // fetch utilization
	Cost   float64 // cycles per branch
}

// Superscalar extends the paper's question to wide-issue machines with the
// stage-level simulator: as fetch width grows, the per-cycle instruction
// supply is increasingly gated by branch handling, so the gap between the
// schemes widens — the observation that drove the authors' subsequent
// superblock work. Widths sweep {1, 2, 4, 8} at k=1, l=2, m=2.
func Superscalar(s *Suite, names []string) ([]SuperscalarRow, *stats.Table, error) {
	const k, l, m = 1, 2, 2
	widths := []int{1, 2, 4, 8}
	type agg struct {
		ipc, util, cost float64
	}
	// results[width][scheme] accumulated over benchmarks.
	results := map[int]map[string]*agg{}
	schemes := []string{"SBTB", "CBTB", "FS"}
	for _, w := range widths {
		results[w] = map[string]*agg{}
		for _, sc := range schemes {
			results[w][sc] = &agg{}
		}
	}

	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		// FS runs on the transformed binary (likely bits in the encoding).
		fsRes, err := fs.Transform(e.Program, e.Profile, 2)
		if err != nil {
			return nil, nil, err
		}
		// One evaluator per scheme drives every width's simulator, so each
		// scheme executes its binary once for the whole sweep.
		for _, run := range []struct {
			scheme string
			prog   *isa.Program
			pred   predict.Predictor
		}{
			{"SBTB", e.Program, btb.NewSBTB(256, 256)},
			{"CBTB", e.Program, btb.NewCBTB(256, 256, 2, 2)},
			{"FS", fsRes.Prog, predict.LikelyBit{Targets: predict.ProgramTargets{Prog: fsRes.Prog}}},
		} {
			sims := make([]*pipesim.Sim, len(widths))
			obs := make(predict.Observers, len(widths))
			for i, w := range widths {
				sims[i] = pipesim.New(w, k, l, m)
				obs[i] = sims[i]
			}
			ev := &predict.Evaluator{P: run.pred, Obs: obs}
			cfg := vm.Config{Trace: func(pos int32) {
				for _, sim := range sims {
					sim.Step(pos)
				}
			}}
			for i := 0; i < b.Runs; i++ {
				if _, err := vm.Run(run.prog, b.Input(i), ev.Hook(), cfg); err != nil {
					return nil, nil, err
				}
			}
			for i, w := range widths {
				a := results[w][run.scheme]
				a.ipc += sims[i].IPC()
				a.util += sims[i].FetchUtilization()
				a.cost += sims[i].CostPerBranch()
			}
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("Extension: fetch width sweep (stage simulator, k=%d l=%d m=%d, averages over %d benchmarks)",
			k, l, m, len(names)),
		"Width", "Scheme", "IPC", "Fetch util", "Cost/branch")
	var rows []SuperscalarRow
	n := float64(len(names))
	for _, w := range widths {
		for _, sc := range schemes {
			a := results[w][sc]
			r := SuperscalarRow{Width: w, Scheme: sc,
				IPC: a.ipc / n, Util: a.util / n, Cost: a.cost / n}
			rows = append(rows, r)
			t.AddRow(fmt.Sprintf("%d", w), sc, stats.F3(r.IPC),
				stats.Pct(r.Util), stats.F3(r.Cost))
		}
	}
	return rows, t, nil
}
