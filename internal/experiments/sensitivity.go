package experiments

import (
	"fmt"

	"branchcost/internal/core"
	"branchcost/internal/stats"
)

// SensitivityRow reports one benchmark's accuracy spread across independent
// input suites.
type SensitivityRow struct {
	Benchmark string
	AFS       []float64 // per suite
	ACBTB     []float64
	SpreadFS  float64 // max - min
	SpreadCB  float64
}

// Sensitivity re-draws each benchmark's input suite from its generator
// (disjoint run-index ranges are independent samples of the same input
// distribution) and measures how much the headline accuracies move — the
// robustness check a reviewer would ask of the paper: do the conclusions
// depend on the particular inputs profiled? Draws evaluate like CrossVal's
// halves, under the suite's configuration without its corpus, and score
// only the two schemes the table reads.
func Sensitivity(s *Suite, names []string, suites int) ([]SensitivityRow, *stats.Table, error) {
	if suites < 2 {
		suites = 2
	}
	t := stats.NewTable(
		fmt.Sprintf("Extension: input-suite sensitivity (%d independent suites per benchmark)", suites),
		"Benchmark", "A_FS per suite", "spread", "A_CBTB per suite", "spread")
	cfg := s.ownInputsConfig()
	cfg.Schemes = []string{"cbtb", "fs"}
	var rows []SensitivityRow
	for _, name := range names {
		b, err := s.lookup(name)
		if err != nil {
			return nil, nil, err
		}
		prog, err := b.Program()
		if err != nil {
			return nil, nil, err
		}
		r := SensitivityRow{Benchmark: name}
		for draw := 0; draw < suites; draw++ {
			inputs := make([][]byte, b.Runs)
			for run := 0; run < b.Runs; run++ {
				// Runs [1000d, 1000d+Runs) are fresh draws from the same
				// generator distribution.
				inputs[run] = b.Input(draw*1000 + run)
			}
			e, err := core.Evaluate(name, prog, inputs, inputs, cfg)
			if err != nil {
				return nil, nil, err
			}
			res, err := e.Scored(cfg.Schemes...)
			if err != nil {
				return nil, nil, err
			}
			r.ACBTB = append(r.ACBTB, res[0].Stats.Accuracy())
			r.AFS = append(r.AFS, res[1].Stats.Accuracy())
		}
		r.SpreadFS = spread(r.AFS)
		r.SpreadCB = spread(r.ACBTB)
		rows = append(rows, r)
		t.AddRow(name, pctList(r.AFS), fmt.Sprintf("%.2fpt", 100*r.SpreadFS),
			pctList(r.ACBTB), fmt.Sprintf("%.2fpt", 100*r.SpreadCB))
	}
	return rows, t, nil
}

func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

func pctList(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f%%", 100*x)
	}
	return out
}
