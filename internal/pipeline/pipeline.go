// Package pipeline implements the paper's pipelined-microarchitecture cost
// model (§2.1–2.3) and a cycle-level simulator that validates it.
//
// The machine is four units in series: an instruction fetch unit of k+1
// stages (1 next-address select + k memory access), a decode unit of ℓ
// stages, an execute unit of m stages, and a state-update unit. A correctly
// predicted branch costs one cycle; a mispredicted branch flushes
// k + ℓ̄ + m̄ instructions, so
//
//	cost = A + (k + ℓ̄ + m̄)(1 − A) cycles per branch,
//
// where A is the prediction accuracy, ℓ̄ ∈ [0, ℓ] is the average decode
// flush (ℓ̄ = ℓ for RISC-style fixed-time decode) and m̄ = f_cond·m is the
// average execute flush under compiler-implemented static interlocking
// (unconditional branches resolve at the end of decode and never flush the
// execute pipeline).
package pipeline

import (
	"fmt"

	"branchcost/internal/predict"
)

// Config describes one pipeline operating point of the cost model.
type Config struct {
	K    int     // instruction-memory access stages in the fetch unit
	LBar float64 // average decode-unit flush length ℓ̄
	MBar float64 // average execute-unit flush length m̄
}

// Penalty is the average number of instructions flushed on a misprediction.
func (c Config) Penalty() float64 { return float64(c.K) + c.LBar + c.MBar }

// Cost is the paper's branch cost in cycles per branch at accuracy a.
func (c Config) Cost(a float64) float64 { return a + c.Penalty()*(1-a) }

// String renders the operating point.
func (c Config) String() string {
	return fmt.Sprintf("k=%d l̄=%.2f m̄=%.2f", c.K, c.LBar, c.MBar)
}

// MBarStatic computes m̄ for compiler-implemented static interlocking given
// the execute depth m and the fraction of branches that are conditional.
func MBarStatic(m int, fracCond float64) float64 { return float64(m) * fracCond }

// CycleSim is a cycle-level model of the pipeline filled from a scheme's
// prediction outcomes (predict.Stats). Every instruction issues in one
// cycle; a mispredicted conditional branch stalls the pipeline for k+ℓ+m
// cycles beyond its own issue cycle minus one (so its total cost is k+ℓ+m),
// and a mispredicted unconditional branch — whose action is known at the
// end of decode — costs k+ℓ. A branch's stall depends only on whether it
// was mispredicted and whether it is conditional, so a scheme's Stats carry
// everything the simulation needs. Comparing the simulated cycles-per-branch
// against Config.Cost validates the analytic model (they differ only in how
// m̄ averages over conditional-vs-unconditional mispredictions; see the
// cycle ablation).
//
// Construct with NewCycleSim, which validates the depths; the zero value is
// unusable (k+ℓ must be at least 1).
type CycleSim struct {
	k, l, m int

	Branches    int64
	Mispredicts int64
	StallCycles int64
	condWrong   int64
}

// NewCycleSim validates the stage depths at construction, like pipesim.New:
// negative depths panic, and so does k+ℓ == 0 — a branch resolves at the end
// of decode at the earliest, so the stall arithmetic in Add relies on
// k+ℓ ≥ 1.
func NewCycleSim(k, l, m int) *CycleSim {
	if k < 0 || l < 0 || m < 0 {
		panic(fmt.Sprintf("pipeline: negative stage depth k=%d l=%d m=%d", k, l, m))
	}
	if k+l == 0 {
		panic("pipeline: k+l must be at least 1 (branches resolve after decode)")
	}
	return &CycleSim{k: k, l: l, m: m}
}

// Depths returns the configured stage depths.
func (cs *CycleSim) Depths() (k, l, m int) { return cs.k, cs.l, cs.m }

// Add charges one scored branch stream: st.Branches − st.Correct
// mispredicts, of which st.CondBranches − st.CondCorrect were conditional.
func (cs *CycleSim) Add(st predict.Stats) {
	wrong := st.Branches - st.Correct
	condWrong := st.CondBranches - st.CondCorrect
	cs.Branches += st.Branches
	cs.Mispredicts += wrong
	cs.condWrong += condWrong
	// k+ℓ−1 ≥ 0 per mispredict (NewCycleSim guarantees k+ℓ ≥ 1), plus m
	// per conditional one.
	cs.StallCycles += wrong*int64(cs.k+cs.l-1) + condWrong*int64(cs.m)
}

// TotalCycles is the cycle count for a run of steps dynamic instructions.
func (cs *CycleSim) TotalCycles(steps int64) int64 { return steps + cs.StallCycles }

// CostPerBranch is the measured average branch cost: each branch's own issue
// cycle plus its share of stall cycles.
func (cs *CycleSim) CostPerBranch() float64 {
	if cs.Branches == 0 {
		return 1
	}
	return 1 + float64(cs.StallCycles)/float64(cs.Branches)
}

// CPI is cycles per instruction for a run of steps dynamic instructions.
func (cs *CycleSim) CPI(steps int64) float64 {
	if steps == 0 {
		return 1
	}
	return float64(cs.TotalCycles(steps)) / float64(steps)
}

// EffectiveConfig returns the Config whose analytic cost this simulation
// realized: k and ℓ̄ = ℓ as configured, and m̄ averaged over the observed
// misprediction mix.
func (cs *CycleSim) EffectiveConfig() Config {
	mbar := 0.0
	if cs.Mispredicts > 0 {
		mbar = float64(cs.m) * float64(cs.condWrong) / float64(cs.Mispredicts)
	}
	return Config{K: cs.k, LBar: float64(cs.l), MBar: mbar}
}
