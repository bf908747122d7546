package experiments

import (
	"fmt"

	"branchcost/internal/fs"
	"branchcost/internal/pipeline"
	"branchcost/internal/stats"
	"branchcost/internal/workloads"
)

// Table1Row is one benchmark's characteristics (paper Table 1).
type Table1Row struct {
	Benchmark   string
	Lines       int
	Runs        int
	Insts       int64
	ControlFrac float64
	Description string
}

// Table1 reproduces "Benchmark characteristics".
func Table1(s *Suite) ([]Table1Row, *stats.Table, error) {
	evals, err := s.EvalPrimary()
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Table 1: Benchmark characteristics",
		"Benchmark", "Lines", "Runs", "Inst.", "Control", "Input description")
	var rows []Table1Row
	for _, e := range evals {
		b, err := s.lookup(e.Name)
		if err != nil {
			return nil, nil, err
		}
		r := Table1Row{
			Benchmark:   e.Name,
			Lines:       e.Program.SourceLines,
			Runs:        e.Profile.Runs,
			Insts:       e.Profile.Steps,
			ControlFrac: e.Summary.ControlFraction(),
			Description: b.Description,
		}
		rows = append(rows, r)
		t.AddRow(r.Benchmark, fmt.Sprintf("%d", r.Lines), fmt.Sprintf("%d", r.Runs),
			stats.Count(r.Insts), stats.Pct(r.ControlFrac), r.Description)
	}
	return rows, t, nil
}

// Table2Row is one benchmark's branch statistics (paper Table 2).
type Table2Row struct {
	Benchmark   string
	CondTaken   float64 // fraction of conditional branches taken
	CondNot     float64
	UncondKnown float64 // fraction of unconditionals with known target
	UncondUnk   float64
}

// Table2 reproduces "Benchmark branch statistics".
func Table2(s *Suite) ([]Table2Row, *stats.Table, error) {
	evals, err := s.EvalPrimary()
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Table 2: Benchmark branch statistics",
		"Benchmark", "Cond Taken", "Cond Not", "Uncond Known", "Uncond Unknown")
	var rows []Table2Row
	var sumT, sumK float64
	for _, e := range evals {
		taken := e.Summary.CondTakenFraction()
		known := e.Summary.KnownFraction()
		r := Table2Row{
			Benchmark: e.Name,
			CondTaken: taken, CondNot: 1 - taken,
			UncondKnown: known, UncondUnk: 1 - known,
		}
		rows = append(rows, r)
		sumT += taken
		sumK += known
		t.AddRow(r.Benchmark, stats.Pct(r.CondTaken), stats.Pct(r.CondNot),
			stats.Pct(r.UncondKnown), stats.Pct(r.UncondUnk))
	}
	n := float64(len(evals))
	t.AddRule()
	t.AddRow("Average", stats.Pct(sumT/n), stats.Pct(1-sumT/n),
		stats.Pct(sumK/n), stats.Pct(1-sumK/n))
	return rows, t, nil
}

// Table3Row is one benchmark's prediction performance (paper Table 3).
type Table3Row struct {
	Benchmark string
	RhoSBTB   float64 // SBTB miss ratio
	ASBTB     float64
	RhoCBTB   float64
	ACBTB     float64
	AFS       float64
}

// Table3 reproduces "Branch prediction performance of the benchmarks".
func Table3(s *Suite) ([]Table3Row, *stats.Table, error) {
	evals, err := s.EvalPrimary()
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Table 3: Branch prediction performance",
		"Benchmark", "rho_SBTB", "A_SBTB", "rho_CBTB", "A_CBTB", "A_FS")
	var rows []Table3Row
	var col [5][]float64
	for _, e := range evals {
		res, err := e.Scored("sbtb", "cbtb", "fs")
		if err != nil {
			return nil, nil, err
		}
		r := Table3Row{
			Benchmark: e.Name,
			RhoSBTB:   res[0].Stats.MissRatio(),
			ASBTB:     res[0].Stats.Accuracy(),
			RhoCBTB:   res[1].Stats.MissRatio(),
			ACBTB:     res[1].Stats.Accuracy(),
			AFS:       res[2].Stats.Accuracy(),
		}
		rows = append(rows, r)
		for i, v := range []float64{r.RhoSBTB, r.ASBTB, r.RhoCBTB, r.ACBTB, r.AFS} {
			col[i] = append(col[i], v)
		}
		t.AddRow(r.Benchmark, stats.F2(r.RhoSBTB), stats.Pct(r.ASBTB),
			fmt.Sprintf("%.4f", r.RhoCBTB), stats.Pct(r.ACBTB), stats.Pct(r.AFS))
	}
	t.AddRule()
	t.AddRow("Average", stats.F2(stats.Mean(col[0])), stats.Pct(stats.Mean(col[1])),
		fmt.Sprintf("%.4f", stats.Mean(col[2])), stats.Pct(stats.Mean(col[3])),
		stats.Pct(stats.Mean(col[4])))
	t.AddRow("Std. dev.", stats.F2(stats.StdDev(col[0])), stats.Pct(stats.StdDev(col[1])),
		fmt.Sprintf("%.4f", stats.StdDev(col[2])), stats.Pct(stats.StdDev(col[3])),
		stats.Pct(stats.StdDev(col[4])))
	return rows, t, nil
}

// Table4Row is one benchmark's branch cost at the two operating points of
// the paper's Table 4 (k+ℓ̄ = 2 and 3, m̄ = 1).
type Table4Row struct {
	Benchmark         string
	SBTB2, CBTB2, FS2 float64 // k+ℓ̄ = 2
	SBTB3, CBTB3, FS3 float64 // k+ℓ̄ = 3
}

// Table4 reproduces "Branch cost for k+ℓ̄ = 2 and 3, m̄ = 1".
func Table4(s *Suite) ([]Table4Row, *stats.Table, error) {
	evals, err := s.EvalPrimary()
	if err != nil {
		return nil, nil, err
	}
	p2 := pipeline.Config{K: 1, LBar: 1, MBar: 1}
	p3 := pipeline.Config{K: 1, LBar: 2, MBar: 1}
	t := stats.NewTable("Table 4: Branch cost for k+l=2 and k+l=3 (m=1)",
		"Benchmark", "SBTB k+l=2", "CBTB k+l=2", "FS k+l=2",
		"SBTB k+l=3", "CBTB k+l=3", "FS k+l=3")
	var rows []Table4Row
	var col [6][]float64
	for _, e := range evals {
		s2, c2, f2, err := e.Cost(p2)
		if err != nil {
			return nil, nil, err
		}
		s3, c3, f3, err := e.Cost(p3)
		if err != nil {
			return nil, nil, err
		}
		r := Table4Row{Benchmark: e.Name, SBTB2: s2, CBTB2: c2, FS2: f2,
			SBTB3: s3, CBTB3: c3, FS3: f3}
		rows = append(rows, r)
		for i, v := range []float64{s2, c2, f2, s3, c3, f3} {
			col[i] = append(col[i], v)
		}
		t.AddRow(r.Benchmark, stats.F2(s2), stats.F2(c2), stats.F2(f2),
			stats.F2(s3), stats.F2(c3), stats.F2(f3))
	}
	t.AddRule()
	avg := make([]string, 6)
	sd := make([]string, 6)
	for i := range col {
		avg[i] = stats.F2(stats.Mean(col[i]))
		sd[i] = stats.F2(stats.StdDev(col[i]))
	}
	t.AddRow(append([]string{"Average"}, avg...)...)
	t.AddRow(append([]string{"Std. dev."}, sd...)...)
	return rows, t, nil
}

// Table5Row is one benchmark's code-size increase per slot depth (paper
// Table 5).
type Table5Row struct {
	Benchmark string
	Growth    map[int]float64 // k+ℓ -> fractional increase
}

// Table5Slots are the slot depths of the paper's Table 5.
var Table5Slots = []int{1, 2, 4, 8}

// Table5 reproduces "Percentage of code-size increase as a function of k".
// It covers all twelve benchmarks (including eqn and espresso, as the paper
// does).
func Table5(s *Suite) ([]Table5Row, *stats.Table, error) {
	t := stats.NewTable("Table 5: Code-size increase vs forward-slot depth",
		"Benchmark", "k+l=1", "k+l=2", "k+l=4", "k+l=8")
	var rows []Table5Row
	cols := map[int][]float64{}
	for _, b := range workloads.All() {
		e, err := s.Eval(b.Name)
		if err != nil {
			return nil, nil, err
		}
		r := Table5Row{Benchmark: b.Name, Growth: map[int]float64{}}
		cells := []string{b.Name}
		for _, slots := range Table5Slots {
			res, err := fs.Transform(e.Program, e.Profile, slots)
			if err != nil {
				return nil, nil, err
			}
			g := res.CodeGrowth()
			r.Growth[slots] = g
			cols[slots] = append(cols[slots], g)
			cells = append(cells, stats.Pct(g))
		}
		rows = append(rows, r)
		t.AddRow(cells...)
	}
	t.AddRule()
	avg := []string{"Average"}
	sd := []string{"Std. dev."}
	for _, slots := range Table5Slots {
		avg = append(avg, stats.Pct(stats.Mean(cols[slots])))
		sd = append(sd, stats.Pct(stats.StdDev(cols[slots])))
	}
	t.AddRow(avg...)
	t.AddRow(sd...)
	return rows, t, nil
}
