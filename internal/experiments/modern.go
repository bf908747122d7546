package experiments

import (
	"context"
	"fmt"

	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// ModernSchemes is the scheme set the modern-class table reports: the
// paper's three plus the zoo members the adversarial classes separate.
var ModernSchemes = []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "tage", "fs"}

// ModernRow is one modern-class benchmark's per-scheme accuracies.
type ModernRow struct {
	Benchmark string             `json:"benchmark"`
	Class     string             `json:"class"`
	Accuracy  map[string]float64 `json:"accuracy"`
}

// ModernSuite evaluates the adversarial workload classes against the
// paper's schemes and the predictor zoo — the table the 1989 data could not
// contain: which scheme each modern branch regime rewards and which it
// defeats. Schemes outside the suite's configured set are replayed from the
// cached traces, so the whole table costs one recording pass. The fs column
// reads the suite's own evaluation, because only it holds the layout
// whose directions FS predicts.
func ModernSuite(s *Suite) ([]ModernRow, *stats.Table, error) {
	headers := append([]string{"Benchmark", "Class"}, ModernSchemes...)
	t := stats.NewTable("Modern workload classes: accuracy per scheme", headers...)
	var rows []ModernRow
	for _, b := range workloads.Modern() {
		e, err := s.Eval(b.Name)
		if err != nil {
			return nil, nil, err
		}
		// fs is the suite's score (as in the Pareto sweep); the other
		// schemes replay the cached trace.
		evs := make([]*predict.Evaluator, len(ModernSchemes))
		var replayed []*predict.Evaluator
		for i, name := range ModernSchemes {
			if name == "fs" {
				continue
			}
			evs[i] = &predict.Evaluator{P: newScheme(name, e, s.Cfg.SchemeConfigs)}
			replayed = append(replayed, evs[i])
		}
		if err := tracefile.Score(context.Background(), e.Trace, replayed); err != nil {
			return nil, nil, err
		}
		r := ModernRow{Benchmark: b.Name, Class: b.Class, Accuracy: map[string]float64{}}
		cells := []string{b.Name, b.Class}
		for i, name := range ModernSchemes {
			a := e.FS().Stats.Accuracy()
			if name != "fs" {
				a = evs[i].S.Accuracy()
			}
			r.Accuracy[name] = a
			cells = append(cells, fmt.Sprintf("%.4f", a))
		}
		rows = append(rows, r)
		t.AddRow(cells...)
	}
	return rows, t, nil
}
