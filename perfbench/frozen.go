package main

import (
	"branchcost/internal/workloads"
)

// The measured work is frozen here rather than read from
// workloads.Everything() and predict.Names(), so registering a benchmark or
// a scheme cannot silently change what the benchmark measures.
var (
	benchNames = []string{
		"cccp", "cmp", "compress", "grep", "lex", "make", "tee", "tar", "wc",
		"yacc", "eqn", "espresso", "interp", "scan-sorted", "scan-unsorted",
		"vcall", "btb-stress", "ctx-storm",
	}
	// primaryNames are the ten benchmarks of the paper's Tables 1-4, whose
	// seed-0 paper-scheme counts are pinned by golden_seed0.json.
	primaryNames = benchNames[:10]

	allSchemes = []string{
		"always-taken", "always-not-taken", "btfnt", "opcode-bias", "fs",
		"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage",
	}
	paperSchemes = []string{"sbtb", "cbtb", "fs"}
	// uploadSchemes is the daemon's default scheme set for an uploaded
	// trace: every registered scheme that replays without program context,
	// in the sorted order the daemon reports them.
	uploadSchemes = []string{
		"always-not-taken", "btb2l", "cbtb", "gshare", "local", "perceptron",
		"sbtb", "tage",
	}
)

// workers is the suite scheduler's pool size, and the daemon-upload client
// count, on the 2-vCPU host the benchmark was defined on.
const workers = 2

// seeded returns a fresh, uncompiled copy of a registered benchmark whose
// run r reads the registered input s·Runs+r: seed 0 is the registered
// suite, and every seed keeps the benchmark's run count.
func seeded(name string, seed int) (*workloads.Benchmark, error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	base := seed * b.Runs
	gen := b.Input
	return &workloads.Benchmark{
		Name: b.Name, Description: b.Description, Sources: b.Sources,
		Runs: b.Runs, Class: b.Class,
		Input: func(run int) []byte { return gen(base + run) },
	}, nil
}

// inputSet holds one benchmark's generated inputs for one seed.
type inputSet struct {
	bench  *workloads.Benchmark // registered benchmark (sources, run count)
	inputs [][]byte
}

// withInputs returns a fresh, uncompiled benchmark that serves inputs
// generated earlier, so a pass never pays for input generation.
func (s inputSet) withInputs() *workloads.Benchmark {
	in := s.inputs
	return &workloads.Benchmark{
		Name: s.bench.Name, Description: s.bench.Description,
		Sources: s.bench.Sources, Runs: len(in), Class: s.bench.Class,
		Input: func(run int) []byte { return in[run] },
	}
}

// genInputs generates every frozen benchmark's inputs for the run's seed,
// with a workloads.input span per benchmark in a traced run.
func genInputs(r *run) ([]inputSet, error) {
	out := make([]inputSet, len(benchNames))
	for i, n := range benchNames {
		b, err := seeded(n, r.seed)
		if err != nil {
			return nil, err
		}
		sp := r.tr.begin("setup:"+n, "workloads.input", -1, 0)
		in := b.Inputs()
		r.tr.end(sp)
		r.addInputs(in...)
		out[i] = inputSet{bench: b, inputs: in}
	}
	return out, nil
}
