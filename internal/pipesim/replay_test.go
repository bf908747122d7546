package pipesim_test

import (
	"math"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// recordTrace records one benchmark's branch stream (all runs) once.
func recordTrace(t *testing.T, bench string) *tracefile.Trace {
	t.Helper()
	b, err := workloads.ByName(bench)
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
	return tr
}

// replaySim replays tr through pred's evaluator, observed by one
// trace-driven simulator.
func replaySim(tr *tracefile.Trace, width, k, l, m int, pred predict.Predictor) *pipesim.Sim {
	sim := pipesim.New(width, k, l, m)
	ev := &predict.Evaluator{P: pred, Obs: sim.TraceObserver()}
	tr.Replay(ev.Hook())
	return sim
}

// TestReplayWidthOneMatchesAnalytic: driven from a recorded trace at W = 1,
// the measured cost per branch equals Config.Cost evaluated at the
// simulation's effective operating point and accuracy — the calibration
// contract the wider models inherit.
func TestReplayWidthOneMatchesAnalytic(t *testing.T) {
	for _, bench := range []string{"wc", "grep"} {
		tr := recordTrace(t, bench)
		for _, mk := range []func() predict.Predictor{
			func() predict.Predictor { return btb.NewSBTB(256, 256) },
			func() predict.Predictor { return btb.NewCBTB(256, 256, 2, 2) },
		} {
			sim := replaySim(tr, 1, 1, 2, 2, mk())
			got := sim.CostPerBranch()
			want := sim.EffectiveConfig().Cost(sim.Accuracy())
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: replayed W=1 cost %.9f != analytic %.9f", bench, got, want)
			}
		}
	}
}

// TestReplayMatchesLiveAtWidthOne: the trace-driven reconstruction and the
// live per-instruction simulation count different instruction totals (the
// trace folds CALL/RET regions out), but at W = 1 the branch cost depends
// only on branches and recovery bubbles, so the two must agree exactly.
func TestReplayMatchesLiveAtWidthOne(t *testing.T) {
	b, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// runSim executes run 0 only, so record run 0 alone for the comparison.
	tr0, err := tracefile.Record(prog, [][]byte{b.Input(0)})
	if err != nil {
		t.Fatal(err)
	}
	live := runSim(t, "compress", 1, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
	replayed := replaySim(tr0, 1, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
	if live.Branches != replayed.Branches || live.Mispredicts != replayed.Mispredicts {
		t.Fatalf("counters differ: live %d/%d, replay %d/%d",
			live.Branches, live.Mispredicts, replayed.Branches, replayed.Mispredicts)
	}
	if d := live.CostPerBranch() - replayed.CostPerBranch(); math.Abs(d) > 1e-9 {
		t.Fatalf("live W=1 cost %.9f != replayed %.9f",
			live.CostPerBranch(), replayed.CostPerBranch())
	}
}

// TestReplayCyclesMonotoneInWidth is the satellite property test: for a
// fixed trace and predictor, the measured cost of the whole run — total
// fetch cycles per branch — is monotonically nonincreasing in W. (The
// fetch-normalized CostPerBranch is deliberately NOT monotone: it charges
// the ideal-width baseline, and alignment waste grows with W. Absolute
// cycles are what a wider machine can only improve: every fetch run of n
// instructions takes ceil(n/W) cycles and recovery bubbles are
// width-independent.)
func TestReplayCyclesMonotoneInWidth(t *testing.T) {
	for _, bench := range []string{"wc", "tee", "cmp"} {
		tr := recordTrace(t, bench)
		prev := math.Inf(1)
		prevW := 0
		for _, w := range []int{1, 2, 3, 4, 8, 16} {
			sim := replaySim(tr, w, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
			if sim.Branches == 0 {
				t.Fatalf("%s: no branches replayed", bench)
			}
			cpb := float64(sim.Cycles()) / float64(sim.Branches)
			if cpb > prev+1e-9 {
				t.Errorf("%s: cycles/branch rose with width: W=%d %.6f > W=%d %.6f",
					bench, w, cpb, prevW, prev)
			}
			prev, prevW = cpb, w
			// At W = 1 the per-branch excess equals the analytic model.
			if w == 1 {
				want := sim.EffectiveConfig().Cost(sim.Accuracy())
				if math.Abs(sim.CostPerBranch()-want) > 1e-9 {
					t.Errorf("%s: W=1 cost %.9f != Config.Cost %.9f",
						bench, sim.CostPerBranch(), want)
				}
			}
		}
	}
}

// TestCalibratedModelsAgreeWithSim: the calibrated Superscalar model tracks
// the simulation within its provable tolerance at every width, and the
// VariableFetch calibration reduces exactly at W = 1.
func TestCalibratedModelsAgreeWithSim(t *testing.T) {
	tr := recordTrace(t, "grep")
	for _, w := range []int{1, 2, 4, 8} {
		sim := replaySim(tr, w, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
		a := sim.Accuracy()
		model := sim.Superscalar()
		if got, tol := math.Abs(model.Cost(a)-sim.CostPerBranch()), sim.ModelTolerance(); got > tol {
			t.Errorf("W=%d: |model−sim| = %.6f exceeds tolerance %.6f", w, got, tol)
		}
		vf := sim.VariableFetch()
		if w == 1 {
			if vf.Rate != 1 {
				t.Errorf("W=1 sustained rate %.9f, want exactly 1", vf.Rate)
			}
			if d := math.Abs(vf.Cost(a) - sim.CostPerBranch()); d > 1e-9 {
				t.Errorf("W=1 varfetch cost off by %.2e", d)
			}
		} else {
			if vf.Rate < 1 || vf.Rate > float64(w) {
				t.Errorf("W=%d sustained rate %.3f outside [1, W]", w, vf.Rate)
			}
			if vf.Cost(a) < sim.EffectiveConfig().Cost(a)-1e-9 {
				t.Errorf("W=%d varfetch cost below analytic floor", w)
			}
		}
	}
}

// TestPipesimBadDepthsPanic: stage depths are validated like width.
func TestPipesimBadDepthsPanic(t *testing.T) {
	for _, bad := range [][3]int{{-1, 1, 1}, {1, -1, 1}, {1, 1, -1}, {0, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(4, %d, %d, %d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			pipesim.New(4, bad[0], bad[1], bad[2])
		}()
	}
}
