package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"branchcost/internal/corpus"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness reports %v", e2e, endToEnd)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, harness %s %s", i, bj.PerLayer[i].Name, bj.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	for _, n := range append(e2e, perLayerNames()...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %v", n, metricName)
		}
	}
}

func TestFrozenNamesResolve(t *testing.T) {
	for _, n := range benchNames {
		if _, err := workloads.ByName(n); err != nil {
			t.Error(err)
		}
	}
	for _, n := range allSchemes {
		if _, ok := predict.Lookup(n); !ok {
			t.Errorf("scheme %s not registered", n)
		}
	}
	// The daemon scores uploads with every registered context-free scheme;
	// a scheme registered later must show up here, not in a silently
	// heavier daemon-upload.
	var replay []string
	for _, n := range predict.SortedNames() {
		if sc, _ := predict.Lookup(n); !sc.Transformed && !sc.NeedsContext {
			replay = append(replay, n)
		}
	}
	if !reflect.DeepEqual(replay, uploadSchemes) {
		t.Errorf("daemon default scheme set %v, frozen %v", replay, uploadSchemes)
	}
	if slices.Contains(predict.Names(), noop{}.Name()) {
		t.Error("the no-op predictor is registered")
	}
}

func TestGoldenMatchesBenchFile(t *testing.T) {
	data, err := os.ReadFile("../BENCH_20260808.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Manifests []struct {
			Benchmark string            `json:"benchmark"`
			Schemes   map[string]counts `json:"schemes"`
		} `json:"manifests"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]counts{}
	for _, m := range bench.Manifests {
		want[m.Benchmark] = map[string]counts{}
		for _, s := range paperSchemes {
			want[m.Benchmark][s] = m.Schemes[s]
		}
	}
	if !reflect.DeepEqual(gold, want) {
		t.Errorf("golden_seed0.json differs from BENCH_20260808.json")
	}
	names := make([]string, 0, len(gold))
	for n := range gold {
		names = append(names, n)
	}
	sort.Strings(names)
	prim := append([]string(nil), primaryNames...)
	sort.Strings(prim)
	if !reflect.DeepEqual(names, prim) {
		t.Errorf("golden covers %v, want the primary benchmarks %v", names, prim)
	}
}

func TestSeedDeterminism(t *testing.T) {
	inputs := func(seed int) [][]byte {
		sets, err := genInputs(&run{seed: seed, tr: newTracer(false)})
		if err != nil {
			t.Fatal(err)
		}
		var all [][]byte
		for _, s := range sets {
			all = append(all, s.inputs...)
		}
		return all
	}
	if a, b := inputs(1), inputs(1); !reflect.DeepEqual(a, b) {
		t.Error("seed 1 gave different inputs twice")
	}
	if a, b := inputs(1), inputs(2); reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 gave identical inputs")
	}
	reg, _ := workloads.ByName("wc")
	s0, _ := seeded("wc", 0)
	if !bytes.Equal(s0.Input(3), reg.Input(3)) {
		t.Error("seed 0 is not the registered suite")
	}

	encoded := func(seed int) []byte {
		b, err := seeded("tee", seed)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracefile.Record(prog, b.Inputs())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encoded(1), encoded(1)) {
		t.Error("seed 1 gave different traces twice")
	}
	if bytes.Equal(encoded(1), encoded(2)) {
		t.Error("seeds 1 and 2 gave identical traces")
	}

	requests := func(seed int) (map[string][]int, []int) {
		runs, err := uploadRunsFor(seed)
		if err != nil {
			t.Fatal(err)
		}
		return runs, sweepOrder(seed, 0, len(benchNames)*uploadRuns)
	}
	r1, o1 := requests(1)
	r1b, o1b := requests(1)
	r2, o2 := requests(2)
	if !reflect.DeepEqual(r1, r1b) || !reflect.DeepEqual(o1, o1b) {
		t.Error("seed 1 gave different request sequences twice")
	}
	if reflect.DeepEqual(r1, r2) && reflect.DeepEqual(o1, o2) {
		t.Error("seeds 1 and 2 gave identical request sequences")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 95); err != nil || p != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with ten samples beyond", p, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples (nine beyond) was not refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
}

// TestUntracedRecordsNoSpans runs one traced-path evaluation with the
// tracer off and on: off records nothing, on records every layer call.
func TestUntracedRecordsNoSpans(t *testing.T) {
	for _, on := range []bool{false, true} {
		r := &run{seed: 0, traced: on, tr: newTracer(on)}
		sets, err := genInputs(r)
		if err != nil {
			t.Fatal(err)
		}
		st, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
		if err != nil {
			t.Fatal(err)
		}
		b := sets[slices.Index(benchNames, "tee")].withInputs()
		out, err := traceEval(context.Background(), r, b, true, st, paperSchemes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.stats["fs"].Branches == 0 {
			t.Error("nothing scored")
		}
		spans := r.tr.snapshot()
		if !on && len(spans) != 0 {
			t.Errorf("untraced run recorded %d spans", len(spans))
		}
		if on {
			sum := summarize(spans)
			for _, n := range []string{"experiments.eval", "compile.compile", "vm.record", "corpus.put", "fs.transform", "predict.replay", "fs.eval"} {
				if sum[n] == nil {
					t.Errorf("traced evaluation has no %s span", n)
				}
			}
			if root := sum["experiments.eval"]; root != nil && root.SelfS > root.TotalS/2 {
				t.Errorf("root self time %v of %v: children not subtracted", root.SelfS, root.TotalS)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", Start: 35 * ms, End: 45 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 30 * ms, 20 * ms, 10 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans, map[string]any{"seed": 0}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 100000 {
		t.Errorf("chrome trace %+v", doc.TraceEvents)
	}
}

// TestReferenceWork pins the seed-0 event counts the end-to-end metrics
// are scaled to.
func TestReferenceWork(t *testing.T) {
	if testing.Short() {
		t.Skip("records all 18 benchmarks")
	}
	ctx := context.Background()
	r := &run{seed: 0, tr: newTracer(false)}
	var events int64
	for _, n := range benchNames {
		b, err := seeded(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracefile.Record(prog, b.Inputs())
		if err != nil {
			t.Fatal(err)
		}
		events += int64(tr.Len())
	}
	if events != suiteRefEvents {
		t.Errorf("seed-0 suite has %d events, suiteRefEvents = %d", events, suiteRefEvents)
	}
	bodies, err := buildBodies(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	events = 0
	for _, b := range bodies {
		events += int64(b.events)
	}
	if events != uploadRefEvents {
		t.Errorf("seed-0 request set has %d events, uploadRefEvents = %d", events, uploadRefEvents)
	}
}

// TestTracerConcurrent records spans from every worker of the pool at once;
// run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer(true)
	err := forEach(func(i int, name string, lane int) error {
		root := tr.begin("eval:"+name, "experiments.eval", -1, lane)
		tr.end(tr.begin("eval:"+name, "corpus.load", root, lane))
		tr.end(root)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	if len(spans) != 2*len(benchNames) {
		t.Fatalf("%d spans, want %d", len(spans), 2*len(benchNames))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) not ended", s.ID, s.Name)
		}
	}
	if got := summarize(spans)["corpus.load"].Count; got != len(benchNames) {
		t.Errorf("%d corpus.load spans, want %d", got, len(benchNames))
	}
}
