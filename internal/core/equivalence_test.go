package core_test

import (
	"context"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// TestReplayEquivalence guards the engine's core invariant: for every
// benchmark and every registered scheme, the Stats core scores from the
// recorded trace are bit-identical to scoring the live vm.Run stream.
// Transformed schemes are scored by core from the layout's direction table
// over the original binary's trace; their reference is the registry
// constructor (LikelyBit) over the transformed binary's live stream, with
// synthetic fixups skipped. Those must agree in Stats and, event by event,
// in ID, Correct and DirRight. The layout's tied sites are what make the
// per-event check stricter than Stats: a table built from the profile
// majority instead of the layout moves outcomes between events of a tied
// site while keeping every count.
func TestReplayEquivalence(t *testing.T) {
	benches := workloads.Everything()
	if testing.Short() {
		// cmp is the smallest benchmark with a tied site the layout
		// predicts against the profile majority.
		short := map[string]bool{"wc": true, "compress": true, "tee": true, "cmp": true}
		var subset []*workloads.Benchmark
		for _, b := range benches {
			if short[b.Name] {
				subset = append(subset, b)
			}
		}
		benches = subset
	}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs()
			checkEquivalence(t, b.Name, prog, inputs, inputs)
		})
	}
	// FS scored on inputs it was not profiled on: CrossVal's split.
	t.Run("crossval/cmp", func(t *testing.T) {
		t.Parallel()
		b, err := workloads.ByName("cmp")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		var train, test [][]byte
		for run := 0; run < b.Runs; run++ {
			if run%2 == 0 {
				train = append(train, b.Input(run))
			} else {
				test = append(test, b.Input(run))
			}
		}
		checkEquivalence(t, b.Name, prog, train, test)
	})
}

// checkEquivalence evaluates prog through core with every registered scheme
// and checks each scheme's Stats against live scoring of evalInputs.
func checkEquivalence(t *testing.T, name string, prog *isa.Program, profInputs, evalInputs [][]byte) {
	t.Helper()
	e, err := core.Evaluate(name, prog, profInputs, evalInputs, core.Config{Schemes: predict.Names()})
	if err != nil {
		t.Fatal(err)
	}

	// Live scoring of every non-transformed scheme over the original binary.
	ctx := predict.SchemeContext{Prog: prog, Profile: e.Profile}
	live := map[string]*predict.Evaluator{}
	var plain, transformed []string
	for _, n := range e.Order {
		sc := predict.MustLookup(n)
		if sc.Transformed {
			transformed = append(transformed, n)
			continue
		}
		live[n] = &predict.Evaluator{P: sc.New(ctx)}
		plain = append(plain, n)
	}
	liveHook := func(ev vm.BranchEvent) {
		for _, n := range plain {
			live[n].Observe(ev)
		}
	}
	for _, in := range evalInputs {
		if _, err := vm.Run(prog, in, liveHook, vm.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range plain {
		if got := e.Scheme(n).Stats; got != live[n].S {
			t.Errorf("%s: replay != live:\nlive   %+v\nreplay %+v", n, live[n].S, got)
		}
	}
	if len(transformed) == 0 {
		return
	}

	// The reference: every transformed scheme's constructor over the
	// transformed binary's live stream, synthetic fixups skipped. The same
	// stream is recorded, and its replay must match the live scoring too.
	res := e.FSResult
	tctx := predict.SchemeContext{Prog: res.Prog, Profile: e.Profile}
	ref := make([]*predict.Evaluator, len(transformed))
	refHash := make([]outcomeHash, len(transformed))
	for i, n := range transformed {
		refHash[i] = newOutcomeHash()
		ref[i] = &predict.Evaluator{P: predict.MustLookup(n).New(tctx), Obs: &refHash[i]}
	}
	ftr := &tracefile.Trace{}
	frec := ftr.Hook()
	fhook := func(ev vm.BranchEvent) {
		if res.SyntheticID(ev.ID) {
			return
		}
		frec(ev)
		for _, r := range ref {
			r.Observe(ev)
		}
	}
	for _, in := range evalInputs {
		if _, err := vm.Run(res.Prog, in, fhook, vm.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range transformed {
		replay := &predict.Evaluator{P: predict.MustLookup(n).New(tctx)}
		ftr.Replay(replay.Hook())
		if replay.S != ref[i].S {
			t.Errorf("%s: transformed-binary replay != live:\nlive   %+v\nreplay %+v", n, ref[i].S, replay.S)
		}
	}

	// Core's side: the predictor core scores with, over core's trace.
	fromTrace := &predict.Evaluator{P: res.Predictor(prog)}
	traceHash := newOutcomeHash()
	fromTrace.Obs = &traceHash
	if err := e.Trace.ScoreParallelContext(context.Background(), fromTrace.Hook()); err != nil {
		t.Fatal(err)
	}
	for i, n := range transformed {
		if got := e.Scheme(n).Stats; got != ref[i].S || got != fromTrace.S {
			t.Errorf("%s: core %+v, table over the trace %+v, reference over the transformed binary %+v",
				n, got, fromTrace.S, ref[i].S)
		}
		if traceHash != refHash[i] {
			t.Errorf("%s: per-event outcomes differ from the reference (hash %#x vs %#x)", n, traceHash, refHash[i])
		}
	}
}

// outcomeHash folds every scored event's ID, Correct and DirRight into a
// running FNV-style hash, so two streams can be compared event by event
// without holding either.
type outcomeHash uint64

func newOutcomeHash() outcomeHash { return 14695981039346656037 }

// ObserveEvent implements predict.Observer.
func (h *outcomeHash) ObserveEvent(ev vm.BranchEvent, out predict.Outcome) {
	x := uint64(uint32(ev.ID)) << 2
	if out.Correct {
		x |= 2
	}
	if out.DirRight {
		x |= 1
	}
	*h = (*h ^ outcomeHash(x)) * 1099511628211
}
