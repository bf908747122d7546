package core_test

import (
	"context"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// TestStatelessCountsMatchReplay: every stateless predictor — the
// registered statics, LikelyBit and the layout's direction table
// (fs.Result.Predictor) — scores the same Stats from the trace's event
// histogram as it does event by event, on every Everything() benchmark.
func TestStatelessCountsMatchReplay(t *testing.T) {
	for _, b := range workloads.Everything() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			e, err := core.EvaluateBenchmark(b, core.Config{Schemes: []string{"fs"}})
			if err != nil {
				t.Fatal(err)
			}
			sctx := predict.SchemeContext{Prog: e.Program, Profile: e.Profile}
			names := []string{"forward-semantic (likely bit)", "forward-semantic (layout table)"}
			preds := []predict.Predictor{
				predict.LikelyBit{Targets: predict.ProgramTargets{Prog: e.Program}},
				e.FSResult.Predictor(e.Program),
			}
			for _, n := range predict.Names() {
				if sc := predict.MustLookup(n); !sc.Transformed {
					if p, ok := sc.New(sctx).(predict.Stateless); ok {
						names, preds = append(names, n), append(preds, p)
					}
				}
			}
			if len(preds) != 6 {
				t.Fatalf("%d stateless predictors (%v), want the four registered statics and two FS forms", len(preds), names)
			}
			// An Observer, even one that does nothing, makes an evaluator
			// replay; none makes a stateless one count.
			var counted, replayed []*predict.Evaluator
			for _, p := range preds {
				counted = append(counted, &predict.Evaluator{P: p})
				replayed = append(replayed, &predict.Evaluator{P: p, Obs: predict.Observers{}})
			}
			if err := tracefile.Score(context.Background(), e.Trace, append(counted, replayed...)); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if !counted[i].Countable() || replayed[i].Countable() {
					t.Fatalf("%s: Countable %v with no observer and %v with one", name, counted[i].Countable(), replayed[i].Countable())
				}
				if counted[i].S != replayed[i].S {
					t.Errorf("%s: from counts %+v, by replay %+v", name, counted[i].S, replayed[i].S)
				}
			}
		})
	}
}
