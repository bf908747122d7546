package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/tracefile"
)

// ParetoRow is one (scheme, geometry) point of the storage-vs-accuracy
// frontier extending Table 4: total predictor state in bits against the
// unweighted suite-average accuracy. The Forward Semantic rides along as the
// zero-storage software baseline.
type ParetoRow struct {
	Scheme       string  `json:"scheme"`
	Config       string  `json:"config"`
	StorageBits  int64   `json:"storage_bits"`
	Accuracy     float64 `json:"accuracy"`
	CondAccuracy float64 `json:"cond_accuracy"`
}

// paretoPoint is one swept geometry: a scheme name plus a per-scheme
// override (nil sweeps the scheme's registry defaults).
type paretoPoint struct {
	scheme string
	over   predict.SchemeConfig
}

// paretoPoints is the swept frontier: at least three geometries per
// hardware scheme — a small, the default-sized, and a large organization —
// so every scheme contributes a storage range, not a single point.
func paretoPoints() []paretoPoint {
	geom := func(n int) predict.BTBGeometry { return predict.BTBGeometry{Entries: n, Assoc: n} }
	return []paretoPoint{
		{"sbtb", predict.SBTBConfig{BTBGeometry: geom(64)}},
		{"sbtb", nil}, // paper: 256 fully associative
		{"sbtb", predict.SBTBConfig{BTBGeometry: geom(1024)}},

		{"cbtb", predict.CBTBConfig{BTBGeometry: geom(64)}},
		{"cbtb", nil}, // paper: 256 fully associative, 2-bit counters
		{"cbtb", predict.CBTBConfig{BTBGeometry: geom(1024)}},

		{"btb2l", predict.TwoLevelConfig{L1Entries: 8, L1Assoc: 2, L2Entries: 256, L2Assoc: 8}},
		{"btb2l", nil}, // default: 16/4 over 1024/8
		{"btb2l", predict.TwoLevelConfig{L1Entries: 32, L1Assoc: 8, L2Entries: 4096, L2Assoc: 16}},

		{"gshare", predict.HistoryConfig{History: 8, Table: 10}},
		{"gshare", nil}, // default: 12-bit history, 4K counters
		{"gshare", predict.HistoryConfig{History: 14, Table: 14}},

		{"local", predict.HistoryConfig{History: 8, Sites: 8, Table: 8}},
		{"local", nil}, // default: 10/10/10
		{"local", predict.HistoryConfig{History: 12, Sites: 12, Table: 12}},

		{"perceptron", predict.PerceptronConfig{History: 8, Table: 6}},
		{"perceptron", nil}, // default: 16-bit history, 256 rows
		{"perceptron", predict.PerceptronConfig{History: 24, Table: 10}},

		{"tage", predict.TAGEConfig{Tables: 4, Base: 9, Table: 7, MaxHist: 32}},
		{"tage", nil}, // default: 4 tables over a 2K base
		{"tage", predict.TAGEConfig{Tables: 5, Base: 12, Table: 10, MaxHist: 64}},
	}
}

// Pareto replays every benchmark's recorded trace through each geometry of
// each scheme and reports, per point, the predictor's storage in bits next
// to the unweighted suite-average accuracy — the extended Table 4 view of
// what each additional bit of predictor state buys. Storage counts all
// predictor state: tags, targets, valid bits, counters, histories.
func Pareto(s *Suite, names []string) ([]ParetoRow, *stats.Table, error) {
	points := paretoPoints()
	type agg struct {
		acc, cond float64
		n         int
	}
	aggs := make([]agg, len(points))
	var fsAgg agg
	storage := make([]int64, len(points))
	resolved := make([]predict.SchemeConfig, len(points))
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		fsRes, err := e.Scored("fs")
		if err != nil {
			return nil, nil, fmt.Errorf("pareto: %w", err)
		}
		evs := make([]*predict.Evaluator, len(points))
		for i, pt := range points {
			configs := predict.ConfigSet{pt.scheme: pt.over}
			p := newScheme(pt.scheme, e, configs)
			evs[i] = &predict.Evaluator{P: p}
			if ss, ok := p.(predict.StorageSized); ok {
				storage[i] = ss.StorageBits()
			}
			resolved[i] = configs.Resolved(pt.scheme)
		}
		if err := tracefile.Score(context.Background(), e.Trace, evs); err != nil {
			return nil, nil, err
		}
		for i, ev := range evs {
			aggs[i].acc += ev.S.Accuracy()
			aggs[i].cond += ev.S.CondAccuracy()
			aggs[i].n++
		}
		fsAgg.acc += fsRes[0].Stats.Accuracy()
		fsAgg.cond += fsRes[0].Stats.CondAccuracy()
		fsAgg.n++
	}
	t := stats.NewTable(
		"Storage vs accuracy: the predictor-zoo Pareto frontier (suite average)",
		"Scheme", "Storage (bits)", "Accuracy", "Cond accuracy", "Config")
	var rows []ParetoRow
	for i, pt := range points {
		a := aggs[i]
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		r := ParetoRow{
			Scheme:       pt.scheme,
			Config:       predict.DescribeOptions(resolved[i]),
			StorageBits:  storage[i],
			Accuracy:     a.acc / n,
			CondAccuracy: a.cond / n,
		}
		rows = append(rows, r)
		t.AddRow(r.Scheme, fmt.Sprintf("%d", r.StorageBits),
			fmt.Sprintf("%.4f", r.Accuracy), fmt.Sprintf("%.4f", r.CondAccuracy), r.Config)
	}
	if fsAgg.n > 0 {
		n := float64(fsAgg.n)
		r := ParetoRow{
			Scheme: "fs", Config: "likely bits + forward slots (software)",
			StorageBits: 0, Accuracy: fsAgg.acc / n, CondAccuracy: fsAgg.cond / n,
		}
		rows = append(rows, r)
		t.AddRow(r.Scheme, "0",
			fmt.Sprintf("%.4f", r.Accuracy), fmt.Sprintf("%.4f", r.CondAccuracy), r.Config)
	}
	return rows, t, nil
}

// WriteParetoJSON writes the frontier as indented JSON (make pareto's
// artifact next to the BENCH_*.json manifests).
func WriteParetoJSON(w io.Writer, rows []ParetoRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
