package oracle_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"branchcost/internal/oracle"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// stepPair drives one instance of a scheme through Step and a twin through
// Predict then Update, resetting both before every flush-th event when
// flush is positive (the evaluator's FlushEvery), and keeps the first event
// on which the two predictions differ.
type stepPair struct {
	step  predict.Stepper
	twin  predict.Predictor
	flush int64
	n     int64
	err   error
}

func newStepPair(t *testing.T, name string, configs predict.ConfigSet, flush int64) *stepPair {
	t.Helper()
	ctx := predict.SchemeContext{Configs: configs}
	st, ok := predict.MustLookup(name).New(ctx).(predict.Stepper)
	if !ok {
		t.Fatalf("%s: not a predict.Stepper", name)
	}
	return &stepPair{step: st, twin: predict.MustLookup(name).New(ctx), flush: flush}
}

func (p *stepPair) observe(ev vm.BranchEvent) {
	if p.err != nil || !ev.Op.IsBranch() {
		return
	}
	if p.flush > 0 && p.n > 0 && p.n%p.flush == 0 {
		p.step.(predict.Predictor).Reset()
		p.twin.Reset()
	}
	got := p.step.Step(ev)
	want := p.twin.Predict(ev)
	p.twin.Update(ev)
	if got != want {
		p.err = fmt.Errorf("event %d (pc %d, op %v, taken %v): Step %+v, Predict %+v",
			p.n, ev.PC, ev.Op, ev.Taken, got, want)
	}
	p.n++
}

// check returns the first differing prediction, or else any difference in
// the two instances' final Metrics.
func (p *stepPair) check() error {
	if p.err != nil {
		return p.err
	}
	got, want := p.step.(predict.MetricSource).Metrics(), p.twin.(predict.MetricSource).Metrics()
	if !maps.Equal(got, want) {
		return fmt.Errorf("after %d events: Step metrics %v, Predict/Update metrics %v", p.n, got, want)
	}
	return nil
}

// steppers returns every registered context-free scheme whose predictor is
// a predict.Stepper, and fails unless every built-in stateful scheme is
// among them. (Tests register deliberately broken two-call schemes too.)
func steppers(t *testing.T) []string {
	var out []string
	for _, name := range predict.Names() {
		sc := predict.MustLookup(name)
		if sc.NeedsContext || sc.Transformed {
			continue
		}
		if _, ok := sc.New(predict.SchemeContext{}).(predict.Stepper); ok {
			out = append(out, name)
		}
	}
	for _, name := range []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage"} {
		if !slices.Contains(out, name) {
			t.Errorf("%s: not a predict.Stepper", name)
		}
	}
	return out
}

// TestStepMatchesPredictUpdate: for every registered Stepper, Step gives
// the prediction Predict gives and leaves the state Update leaves, event for
// event and in the final Metrics (btb2l's per-level counters among them),
// with and without periodic resets: on generated traces at every fuzz
// geometry, and on the recorded traces of a subset of Everything() that
// covers paper benchmarks, indirect jumps, BTB capacity pressure and
// context switches (wc and vcall under -short).
func TestStepMatchesPredictUpdate(t *testing.T) {
	names := steppers(t)
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		r := rand.New(rand.NewSource(0x57E9))
		for n := range 400 {
			g := oracle.Generate(r, oracle.GenConfig{Sites: 4 + r.Intn(60), Events: 64 + r.Intn(960)})
			configs := fuzzGeometries[n%len(fuzzGeometries)]
			for _, name := range names {
				for _, flush := range []int64{0, int64(5 + n%50)} {
					p := newStepPair(t, name, configs, flush)
					for _, ev := range g.Events {
						p.observe(ev)
					}
					if err := p.check(); err != nil {
						t.Fatalf("%s, trace %d, flush %d: %v", name, n, flush, err)
					}
				}
			}
		}
	})
	benches := []string{"wc", "cmp", "interp", "vcall", "btb-stress", "ctx-storm"}
	if testing.Short() {
		benches = []string{"wc", "vcall"}
	}
	for _, b := range workloads.Everything() {
		if !slices.Contains(benches, b.Name) {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := tracefile.Record(prog, b.Inputs())
			if err != nil {
				t.Fatal(err)
			}
			var pairs []*stepPair
			for _, name := range names {
				for _, flush := range []int64{0, 10_000} {
					pairs = append(pairs, newStepPair(t, name, nil, flush))
				}
			}
			tr.Replay(func(ev vm.BranchEvent) {
				for _, p := range pairs {
					p.observe(ev)
				}
			})
			for i, p := range pairs {
				if err := p.check(); err != nil {
					t.Errorf("%s, flush %d: %v", names[i/2], p.flush, err)
				}
			}
		})
	}
}
