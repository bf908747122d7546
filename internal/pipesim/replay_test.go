package pipesim_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// recordTrace records one benchmark's branch stream (all runs) once.
func recordTrace(t *testing.T, bench string) (*isa.Program, *tracefile.Trace) {
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
	return prog, tr
}

// replaySim replays tr, a recorded stream of prog, through pred's
// evaluator, observed by one trace-driven simulator.
func replaySim(t *testing.T, prog *isa.Program, tr *tracefile.Trace, width, k, l, m int, pred predict.Predictor) *pipesim.Sim {
	t.Helper()
	sim := pipesim.New(width, k, l, m)
	obs := pipesim.TraceObserver(prog, tr, sim)
	ev := &predict.Evaluator{P: pred, Obs: obs}
	tr.Replay(ev.Hook())
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
	return sim
}

// newSims returns one simulator per width at k=1, l=2, m=2.
func newSims(widths []int) []*pipesim.Sim {
	sims := make([]*pipesim.Sim, len(widths))
	for i, w := range widths {
		sims[i] = pipesim.New(w, 1, 2, 2)
	}
	return sims
}

// liveSims runs p over inputs with pred's evaluator driving one live Sim
// per width (Step on every executed instruction), and records the branch
// trace in the same pass.
func liveSims(t *testing.T, p *isa.Program, inputs [][]byte, widths []int, pred predict.Predictor, extra ...vm.BranchFunc) ([]*pipesim.Sim, *tracefile.Trace) {
	t.Helper()
	sims := newSims(widths)
	obs := make(predict.Observers, len(sims))
	for i, s := range sims {
		obs[i] = s
	}
	ev := &predict.Evaluator{P: pred, Obs: obs}
	step := func(pos int32) {
		for _, s := range sims {
			s.Step(pos)
		}
	}
	hooks := append([]vm.BranchFunc{ev.Hook()}, extra...)
	tr, err := tracefile.RecordConfig(context.Background(), p, inputs, vm.Config{Trace: step}, hooks...)
	if err != nil {
		t.Fatal(err)
	}
	return sims, tr
}

// TestTraceDrivenMatchesLive is the trace-driven simulator's identity
// gate: on every registered benchmark, for the original binary and the
// Forward-Semantic-transformed one, the Sims driven from the recorded trace
// equal, field for field, the Sims that followed the live run instruction
// by instruction, at W ∈ {1, 2, 4, 8}. -short checks a subset.
func TestTraceDrivenMatchesLive(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	for _, b := range workloads.Everything() {
		if testing.Short() && !slices.Contains([]string{"wc", "vcall"}, b.Name) {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			inputs := b.Inputs()
			prof := profile.New()
			col := &profile.Collector{P: prof}
			cbtb := func() predict.Predictor { return btb.NewCBTB(256, 256, 2, 2) }
			live, tr := liveSims(t, p, inputs, widths, cbtb(), col.Hook())
			prof.Steps, prof.Runs = tr.Steps, tr.Runs
			res, err := fs.Transform(p, prof, 2)
			if err != nil {
				t.Fatal(err)
			}
			likely := func() predict.Predictor { return predict.LikelyBit{Targets: predict.ProgramTargets{Prog: res.Prog}} }
			fsLive, fsTr := liveSims(t, res.Prog, inputs, widths, likely())
			for _, c := range []struct {
				binary string
				prog   *isa.Program
				tr     *tracefile.Trace
				live   []*pipesim.Sim
				pred   predict.Predictor
			}{{"original", p, tr, live, cbtb()}, {"fs", res.Prog, fsTr, fsLive, likely()}} {
				traced := newSims(widths)
				obs := pipesim.TraceObserver(c.prog, c.tr, traced...)
				ev := &predict.Evaluator{P: c.pred, Obs: obs}
				if err := tracefile.Score(context.Background(), c.tr, []*predict.Evaluator{ev}); err != nil {
					t.Fatal(err)
				}
				if err := obs.Finish(); err != nil {
					t.Fatalf("%s: %v", c.binary, err)
				}
				for i, w := range widths {
					if *traced[i] != *c.live[i] {
						t.Errorf("%s W=%d: trace-driven %+v\n live %+v", c.binary, w, *traced[i], *c.live[i])
					}
				}
			}
		})
	}
}

// TestReplayWidthOneMatchesAnalytic: driven from a recorded trace at W = 1,
// the measured cost per branch equals Config.Cost evaluated at the
// simulation's effective operating point and accuracy — the calibration
// contract the wider models inherit.
func TestReplayWidthOneMatchesAnalytic(t *testing.T) {
	for _, bench := range []string{"wc", "grep"} {
		prog, tr := recordTrace(t, bench)
		for _, mk := range []func() predict.Predictor{
			func() predict.Predictor { return btb.NewSBTB(256, 256) },
			func() predict.Predictor { return btb.NewCBTB(256, 256, 2, 2) },
		} {
			sim := replaySim(t, prog, tr, 1, 1, 2, 2, mk())
			got := sim.CostPerBranch()
			want := sim.EffectiveConfig().Cost(sim.Accuracy())
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: replayed W=1 cost %.9f != analytic %.9f", bench, got, want)
			}
		}
	}
}

// TestReplayMatchesLiveAtWidthOne: driven from the trace of run 0 alone,
// the W = 1 simulator ends in the live per-instruction simulation's state,
// so its counters and branch cost agree exactly.
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
	replayed := replaySim(t, prog, tr0, 1, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
	if *live != *replayed {
		t.Fatalf("live %+v\nreplayed %+v", *live, *replayed)
	}
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
		prog, tr := recordTrace(t, bench)
		prev := math.Inf(1)
		prevW := 0
		for _, w := range []int{1, 2, 3, 4, 8, 16} {
			sim := replaySim(t, prog, tr, w, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
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
	prog, tr := recordTrace(t, "grep")
	for _, w := range []int{1, 2, 4, 8} {
		sim := replaySim(t, prog, tr, w, 1, 2, 2, btb.NewCBTB(256, 256, 2, 2))
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
