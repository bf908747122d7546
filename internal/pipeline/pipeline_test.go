package pipeline_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
)

func TestCostModelEndpoints(t *testing.T) {
	c := pipeline.Config{K: 1, LBar: 2, MBar: 1}
	if got := c.Cost(1); got != 1 {
		t.Fatalf("perfect prediction must cost 1 cycle, got %v", got)
	}
	if got := c.Cost(0); got != 4 {
		t.Fatalf("never-right must cost the full penalty, got %v", got)
	}
	if c.Penalty() != 4 {
		t.Fatalf("penalty = %v", c.Penalty())
	}
}

func TestCostModelPaperValues(t *testing.T) {
	// The paper's averages: A_FS = 0.935 with penalty 4 gives 1.195, its
	// "1.19 cycles/branch" headline for the 5-stage pipeline; penalty 11
	// gives 1.65.
	c5 := pipeline.Config{K: 1, LBar: 1, MBar: 2}
	if got := c5.Cost(0.935); math.Abs(got-1.195) > 1e-9 {
		t.Fatalf("5-stage FS cost = %v, want 1.195", got)
	}
	c11 := pipeline.Config{K: 4, LBar: 3, MBar: 4}
	if got := c11.Cost(0.935); math.Abs(got-1.65) > 1e-9 {
		t.Fatalf("11-stage FS cost = %v, want 1.65", got)
	}
	// Note: the paper's 1.68 for the best hardware scheme at 11 stages is
	// NOT c11.Cost(0.924) = 1.76 — its headline hardware numbers are not
	// derivable from the Table 3 averages with a single penalty, so we only
	// pin the FS values (which are).
}

// TestCostMonotonicity: cost decreases with accuracy and increases with
// penalty — for all valid parameters.
func TestCostMonotonicity(t *testing.T) {
	check := func(a1, a2, p1, p2 float64) bool {
		clamp := func(x float64) float64 { return math.Abs(math.Mod(x, 1)) }
		a1, a2 = clamp(a1), clamp(a2)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		pen1 := 1 + math.Abs(math.Mod(p1, 16))
		pen2 := pen1 + math.Abs(math.Mod(p2, 16))
		c1 := pipeline.Config{K: 0, LBar: pen1, MBar: 0}
		c2 := pipeline.Config{K: 0, LBar: pen2, MBar: 0}
		// Higher accuracy never costs more; deeper pipeline never costs less.
		return c1.Cost(a2) <= c1.Cost(a1)+1e-12 && c2.Cost(a1)+1e-12 >= c1.Cost(a1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMBarStatic(t *testing.T) {
	if got := pipeline.MBarStatic(4, 0.5); got != 2 {
		t.Fatalf("MBarStatic = %v", got)
	}
	if got := pipeline.MBarStatic(3, 0); got != 0 {
		t.Fatalf("MBarStatic = %v", got)
	}
}

func TestConfigString(t *testing.T) {
	s := pipeline.Config{K: 2, LBar: 1.5, MBar: 0.5}.String()
	if !strings.Contains(s, "k=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCycleSimMatchesModel(t *testing.T) {
	// Feed a synthetic outcome mix and verify the simulated cycles/branch
	// equals the analytic model at the effective config.
	cs := pipeline.NewCycleSim(1, 2, 3)
	for _, st := range []predict.Stats{
		{Branches: 700, Correct: 700, CondBranches: 700, CondCorrect: 700},
		{Branches: 200, CondBranches: 200}, // cond mispredicts: stall k+l+m-1 = 5
		{Branches: 100},                    // uncond mispredicts: stall k+l-1 = 2
	} {
		cs.Add(st)
	}
	if cs.Branches != 1000 || cs.Mispredicts != 300 {
		t.Fatalf("counts: %+v", cs)
	}
	wantStalls := int64(200*5 + 100*2)
	if cs.StallCycles != wantStalls {
		t.Fatalf("stalls = %d, want %d", cs.StallCycles, wantStalls)
	}
	sim := cs.CostPerBranch()
	model := cs.EffectiveConfig().Cost(0.7)
	if math.Abs(sim-model) > 1e-12 {
		t.Fatalf("simulated %v != model %v", sim, model)
	}
	// Effective m̄ averages over the misprediction mix: 3 * 200/300 = 2.
	eff := cs.EffectiveConfig()
	if math.Abs(eff.MBar-2.0) > 1e-12 {
		t.Fatalf("effective m̄ = %v", eff.MBar)
	}
}

func TestCycleSimTotalsAndCPI(t *testing.T) {
	cs := pipeline.NewCycleSim(1, 1, 1)
	cs.Add(predict.Stats{Branches: 1, CondBranches: 1}) // one cond mispredict: stall 2
	if cs.TotalCycles(10) != 12 {
		t.Fatalf("total = %d", cs.TotalCycles(10))
	}
	if got := cs.CPI(10); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("CPI = %v", got)
	}
	if got := cs.CPI(0); got != 1 {
		t.Fatalf("empty CPI = %v", got)
	}
	empty := pipeline.NewCycleSim(1, 1, 1)
	if empty.CostPerBranch() != 1 {
		t.Fatal("empty cost per branch must be 1")
	}
}

func TestNewCycleSimValidatesDepths(t *testing.T) {
	// k=0, l=0: an unconditional mispredict would stall k+l-1 = -1.
	// Depths are validated at construction instead of clamping after the
	// fact, so both the degenerate and the negative configurations panic.
	for _, bad := range [][3]int{{0, 0, 2}, {-1, 1, 1}, {1, -1, 1}, {1, 1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCycleSim(%d, %d, %d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			pipeline.NewCycleSim(bad[0], bad[1], bad[2])
		}()
	}
}

// TestCycleSimCloneAndDepths: a simulator keeps its depths through use, and
// a fresh one built from them, NewCycleSim(cs.Depths()), has the same
// geometry and none of the counters.
func TestCycleSimCloneAndDepths(t *testing.T) {
	cs := pipeline.NewCycleSim(1, 2, 3)
	cs.Add(predict.Stats{Branches: 1, CondBranches: 1})
	if k, l, m := cs.Depths(); k != 1 || l != 2 || m != 3 {
		t.Fatalf("Depths = %d %d %d, want 1 2 3", k, l, m)
	}
	c := pipeline.NewCycleSim(cs.Depths())
	if k, l, m := c.Depths(); k != 1 || l != 2 || m != 3 {
		t.Fatalf("clone depths = %d %d %d", k, l, m)
	}
	if c.Branches != 0 || c.StallCycles != 0 {
		t.Fatalf("clone carried counters: %+v", c)
	}
}

// TestCycleSimPropertyEquivalence: for arbitrary outcome mixes, the
// simulator and the analytic model agree exactly.
func TestCycleSimPropertyEquivalence(t *testing.T) {
	check := func(seed []byte) bool {
		cs := pipeline.NewCycleSim(2, 1, 2)
		correctCount := 0
		for _, b := range seed {
			// One branch per byte: bit 0 clear = correct, bit 1 clear =
			// conditional.
			st := predict.Stats{Branches: 1}
			if b&1 == 0 {
				st.Correct = 1
				correctCount++
			}
			if b&2 == 0 {
				st.CondBranches, st.CondCorrect = 1, st.Correct
			}
			cs.Add(st)
		}
		if cs.Branches == 0 {
			return true
		}
		a := float64(correctCount) / float64(cs.Branches)
		return math.Abs(cs.CostPerBranch()-cs.EffectiveConfig().Cost(a)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
