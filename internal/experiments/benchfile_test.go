package experiments_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/workloads"
)

// TestBenchFileCounts pins the default suite to the committed headline run,
// BENCH_20260808.json: every primary benchmark's sbtb/cbtb/fs counts must
// equal the recorded ones exactly (replay is deterministic, so any drift is
// a behaviour change), and the resolved scheme configurations must render
// identically. Wall-clock times in the file are not compared.
func TestBenchFileCounts(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_20260808.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Manifests []core.Manifest `json:"manifests"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if got, want := len(bench.Manifests), len(workloads.Primary()); got != want {
		t.Fatalf("bench file holds %d manifests, want %d (the primary benchmarks)", got, want)
	}
	for _, want := range bench.Manifests {
		e, err := suite.Eval(want.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Manifest()
		for _, s := range []string{"sbtb", "cbtb", "fs"} {
			g, w := got.Schemes[s], want.Schemes[s]
			if g.Branches != w.Branches || g.Correct != w.Correct || g.Hits != w.Hits || g.Misses != w.Misses {
				t.Errorf("%s %s: branches/correct/hits/misses = %d/%d/%d/%d, bench file has %d/%d/%d/%d",
					want.Benchmark, s, g.Branches, g.Correct, g.Hits, g.Misses,
					w.Branches, w.Correct, w.Hits, w.Misses)
			}
		}
		if !reflect.DeepEqual(got.Config.SchemeConfigs, want.Config.SchemeConfigs) {
			t.Errorf("%s: scheme_configs %v, bench file has %v",
				want.Benchmark, got.Config.SchemeConfigs, want.Config.SchemeConfigs)
		}
	}
}
