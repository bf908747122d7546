package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"branchcost/internal/core"
	"branchcost/internal/predict"
)

// goldenJSON pins the seed-0 paper-scheme counts of the ten primary
// benchmarks, copied from the repository's committed BENCH_20260808.json
// (a self-test keeps the two equal).
//
//go:embed golden_seed0.json
var goldenJSON []byte

// counts are the simulated statistics pinned by the golden file.
type counts struct {
	Branches int64 `json:"branches"`
	Correct  int64 `json:"correct"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

func countsOf(s predict.Stats) counts { return counts{s.Branches, s.Correct, s.Hits, s.Misses} }

func loadGolden() (map[string]map[string]counts, error) {
	var g map[string]map[string]counts
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_seed0.json: %w", err)
	}
	return g, nil
}

// evalChecker checks every evaluation of a run, outside the timing: the
// expected schemes are all scored, every pass reproduces the first pass's
// Stats exactly, FS accuracy equals the profile-only analytic A_FS, and on
// seed 0 the paper schemes match the golden counts.
type evalChecker struct {
	seed    int
	schemes []string
	gold    map[string]map[string]counts
	first   map[string]map[string]predict.Stats
}

func newEvalChecker(seed int, schemes []string) (*evalChecker, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &evalChecker{seed: seed, schemes: schemes, gold: g, first: map[string]map[string]predict.Stats{}}, nil
}

// check returns every problem with one evaluation (nil when it is right).
func (c *evalChecker) check(e *core.Eval) []string {
	var bad []string
	first, seen := c.first[e.Name]
	if !seen {
		first = map[string]predict.Stats{}
		c.first[e.Name] = first
	}
	for _, sn := range c.schemes {
		res, ok := e.Schemes[sn]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: scheme %s not scored", e.Name, sn))
			continue
		}
		if !seen {
			first[sn] = res.Stats
		} else if res.Stats != first[sn] {
			bad = append(bad, fmt.Sprintf("%s/%s: stats %+v differ from the first pass's %+v", e.Name, sn, res.Stats, first[sn]))
		}
		if want, ok := c.gold[e.Name][sn]; ok && c.seed == 0 && countsOf(res.Stats) != want {
			bad = append(bad, fmt.Sprintf("%s/%s: counts %+v, golden %+v", e.Name, sn, countsOf(res.Stats), want))
		}
	}
	if fsr, ok := e.Schemes["fs"]; ok {
		if d := math.Abs(fsr.Stats.Accuracy() - e.AnalyticFS); d > 1e-9 {
			bad = append(bad, fmt.Sprintf("%s: FS accuracy %v vs analytic %v", e.Name, fsr.Stats.Accuracy(), e.AnalyticFS))
		}
	}
	return bad
}
