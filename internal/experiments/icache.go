package experiments

import (
	"fmt"

	"branchcost/internal/fs"
	"branchcost/internal/icache"
	"branchcost/internal/stats"
	"branchcost/internal/vm"
)

// ICacheRow quantifies the paper's spatial-locality claim for one benchmark
// and slot depth: code grows by Growth, but the I-cache miss ratio moves
// only from MissOrig to MissFS.
type ICacheRow struct {
	Benchmark string
	Slots     int
	Growth    float64
	MissOrig  float64
	MissFS    float64
}

// ICacheConfig is the cache geometry used by the locality experiment. The
// fetch-substitution model itself lives in internal/icache (FSFetch).
var ICacheConfig = icache.DefaultGeometry

// ICache measures instruction-cache miss ratios of the original and the
// FS-transformed binaries over the same runs, for each slot depth. The
// original stream is walked from the suite's trace; each transformed binary
// runs once per input, under the suite's step budget.
func ICache(s *Suite, names []string, slotDepths []int) ([]ICacheRow, *stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: I-cache miss ratio vs code expansion (%d lines x %d words, %d-way)",
			ICacheConfig.Lines, ICacheConfig.LineWords, ICacheConfig.Assoc),
		"Benchmark", "k+l", "Code growth", "Miss orig", "Miss FS", "Miss growth")
	var rows []ICacheRow
	for _, name := range names {
		e, err := s.Eval(name)
		if err != nil {
			return nil, nil, err
		}
		b, err := s.lookup(name)
		if err != nil {
			return nil, nil, err
		}
		orig := ICacheConfig.New()
		if err := e.Trace.Walk(e.Program, func(start, end int32) {
			for pos := start; pos < end; pos++ {
				orig.Access(pos)
			}
		}); err != nil {
			return nil, nil, fmt.Errorf("icache: %s: %w", name, err)
		}
		for _, slots := range slotDepths {
			res, err := fs.Transform(e.Program, e.Profile, slots)
			if err != nil {
				return nil, nil, err
			}
			sim := ICacheConfig.New()
			fm := icache.NewFSFetch(res.Prog, sim)
			cfg := vm.Config{Trace: fm.Trace, MaxSteps: s.Cfg.MaxVMSteps}
			for run := 0; run < b.Runs; run++ {
				if _, err := vm.Run(res.Prog, b.Input(run), nil, cfg); err != nil {
					return nil, nil, err
				}
			}
			r := ICacheRow{
				Benchmark: name,
				Slots:     slots,
				Growth:    res.CodeGrowth(),
				MissOrig:  orig.MissRatio(),
				MissFS:    sim.MissRatio(),
			}
			rows = append(rows, r)
			missGrowth := 0.0
			if r.MissOrig > 0 {
				missGrowth = r.MissFS/r.MissOrig - 1
			}
			t.AddRow(name, fmt.Sprintf("%d", slots), stats.Pct(r.Growth),
				fmt.Sprintf("%.4f", r.MissOrig), fmt.Sprintf("%.4f", r.MissFS),
				stats.Pct(missGrowth))
		}
	}
	return rows, t, nil
}
