// Package pipesim is a stage-level simulator of the paper's pipelined
// microarchitecture, generalized to fetch width W (the paper's machine is
// W = 1; the superscalar machines that followed it made branch cost
// relatively worse, which this model quantifies).
//
// The pipeline is the paper's §2.1 structure: a next-address select stage,
// K instruction-memory stages, L decode stages, M execute stages, and a
// state-update stage, in order, with no structural or data hazards (the
// paper folds data interlocks into the m̄ average). Fetch delivers up to W
// sequential instructions per cycle; a fetch group ends early at any taken
// control transfer (the redirect changes the fetch address — the classic
// taken-branch fetch break). A mispredicted branch redirects fetch when it
// resolves — end of decode for unconditional branches, end of execute for
// conditional ones — and the wrong-path instructions fetched in between are
// squashed. The redirect is forwarded during the resolving stage's final
// cycle, so a mispredicted conditional branch costs exactly K+L+M cycles
// end to end: the paper's penalty P, making the W = 1 simulation agree with
// the analytic model cost = A + P(1−A) exactly.
//
// The simulator does no predicting of its own: it is a predict.Observer
// that charges cycles for the outcomes a predict.Evaluator reports, so one
// evaluator — one predictor — drives any number of simulators at once
// (predict.Observers), one per fetch width.
package pipesim

import (
	"fmt"

	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// Sim accumulates cycle counts for one run. Attach it to an evaluator either
// live — as the evaluator's observer, plus a vm.Config Trace of Step — or
// over a recorded trace alone via TraceObserver, which is how the frontend
// cost models are calibrated without extra VM passes.
type Sim struct {
	Width   int // fetch width W (instructions per cycle), >= 1
	K, L, M int

	// Results.
	Insts       int64 // right-path instructions fetched
	Branches    int64
	Mispredicts int64
	Squashed    int64 // wrong-path fetch slots issued then discarded
	GroupBreaks int64 // fetch groups ended early by a correctly taken branch
	DeadCycles  int64 // fetch cycles idled waiting for misprediction recovery
	// UnrecordedBreaks counts fetch breaks charged by TraceObserver for
	// control transfers the trace does not record (CALL/RET fold the callee
	// out of the recorded stream). Always 0 when driven live.
	UnrecordedBreaks int64

	condWrong int64

	// fetch state: cycle currently being filled and slots used in it.
	curCycle  int64
	slotsUsed int
	// drainCycle is the cycle the last instruction leaves the pipe.
	drainCycle int64
}

// New returns a simulator of a width-W fetch engine over k, l and m stages.
// Stage depths are validated up front: negative depths panic, as does
// k+l == 0 (a branch resolves at the end of decode at the earliest, so every
// misprediction penalty is at least one cycle).
func New(width, k, l, m int) *Sim {
	if width < 1 {
		panic(fmt.Sprintf("pipesim: width %d < 1", width))
	}
	if k < 0 || l < 0 || m < 0 {
		panic(fmt.Sprintf("pipesim: negative stage depth k=%d l=%d m=%d", k, l, m))
	}
	if k+l == 0 {
		panic("pipesim: k+l must be at least 1 (branches resolve after decode)")
	}
	return &Sim{Width: width, K: k, L: l, M: m, curCycle: 1}
}

// depth is the pipeline length after the select stage.
func (s *Sim) depth() int64 { return int64(s.K + s.L + s.M) }

// fetchOne accounts one right-path instruction entering the pipe and
// returns the cycle it was fetched in.
func (s *Sim) fetchOne() int64 {
	if s.slotsUsed >= s.Width {
		s.curCycle++
		s.slotsUsed = 0
	}
	s.slotsUsed++
	s.Insts++
	if done := s.curCycle + 1 + s.depth(); done > s.drainCycle {
		s.drainCycle = done
	}
	return s.curCycle
}

// redirect moves fetch to a new address at the given cycle: the current
// group ends and the next instruction starts a fresh group.
func (s *Sim) redirect(at int64) {
	if at <= s.curCycle {
		at = s.curCycle + 1
	}
	s.curCycle = at
	s.slotsUsed = 0
}

// Step accounts one executed instruction's fetch (called from the VM's
// trace hook, which fires for every instruction including branches, before
// the evaluator reports the branch's outcome).
func (s *Sim) Step(pos int32) {
	s.fetchOne()
}

// ObserveEvent makes the simulator a live predict.Observer: it applies the
// semantics of a branch already fetched by Step — group breaks and
// misprediction redirects — for the outcome the evaluator reports. Wire
// both:
//
//	sim := pipesim.New(4, 1, 2, 2)
//	ev := &predict.Evaluator{P: pred, Obs: sim}
//	vm.Run(prog, input, ev.Hook(), vm.Config{Trace: sim.Step})
//
// CALL/RET redirect fetch too, but the evaluator does not score them, so
// they are not studied here.
func (s *Sim) ObserveEvent(ev vm.BranchEvent, out predict.Outcome) {
	s.Branches++
	fetchCycle := s.curCycle // the group this branch was fetched in

	if out.Correct {
		if ev.Taken {
			// Correctly predicted taken: the target comes from the BTB or
			// the forward slots, but the fetch address still changes — the
			// group ends.
			s.GroupBreaks++
			s.redirect(fetchCycle + 1)
		}
		return
	}

	s.Mispredicts++
	// Resolution: end of decode for unconditional, end of execute for
	// conditional; the redirect forwards during the resolving stage's last
	// cycle, so the next right-path fetch starts penalty cycles after the
	// branch's own fetch cycle.
	penalty := int64(s.K + s.L)
	if ev.Op.IsCondBranch() {
		penalty += int64(s.M)
		s.condWrong++
	}
	s.DeadCycles += penalty - 1
	// Wrong-path slots issued while waiting: full width for each cycle
	// between the branch's group and the redirect, minus the slot the
	// branch itself used.
	wrongCycles := penalty - 1
	if wrongCycles > 0 {
		s.Squashed += wrongCycles*int64(s.Width) + int64(s.Width-s.slotsUsed)
	}
	s.redirect(fetchCycle + penalty)
}

// fetchRun accounts n sequential right-path instructions, equivalent to n
// calls of fetchOne but in O(1): TraceObserver reconstructs whole fetch
// runs from PC arithmetic rather than per-instruction VM callbacks.
func (s *Sim) fetchRun(n int64) {
	for n > 0 {
		if s.slotsUsed >= s.Width {
			s.curCycle++
			s.slotsUsed = 0
		}
		take := int64(s.Width - s.slotsUsed)
		if take > n {
			take = n
		}
		s.slotsUsed += int(take)
		s.Insts += take
		n -= take
		if full := n / int64(s.Width); full > 0 {
			s.curCycle += full
			s.slotsUsed = s.Width
			s.Insts += full * int64(s.Width)
			n -= full * int64(s.Width)
		}
	}
	if done := s.curCycle + 1 + s.depth(); done > s.drainCycle {
		s.drainCycle = done
	}
}

// TraceObserver returns the observer driving the simulation from a recorded
// branch stream alone (an evaluator fed by tracefile.Score), with no live VM
// pass: the sequential instructions between consecutive branch events are
// reconstructed from PC arithmetic — every recorded event carries the
// actual next fetch position in ev.Target, so the straight-line run up to
// the next event is the position gap. Control transfers the trace does not
// record (CALL/RET) surface as gaps that do not match: a backward move is
// charged as one fetch break (UnrecordedBreaks), a forward move is fetched
// as if it were straight-line. The reconstruction is exact at W = 1 and
// width-independent, so cross-width comparisons stay apples to apples.
func (s *Sim) TraceObserver() predict.Observer { return &traced{s: s, expect: -1} }

// traced is the trace-driven observer: expect is the fetch position the
// previous event's outcome leads to (−1 before the first event).
type traced struct {
	s      *Sim
	expect int64
}

func (o *traced) ObserveEvent(ev vm.BranchEvent, out predict.Outcome) {
	s := o.s
	pc := int64(ev.PC)
	switch {
	case o.expect < 0:
		s.fetchRun(pc) // straight-line prologue from program entry
	case pc >= o.expect:
		s.fetchRun(pc - o.expect)
	default:
		s.UnrecordedBreaks++
		// Reset fetch-block alignment, but only if the current group has
		// started filling — if the previous event already redirected,
		// fetch is at a fresh boundary and redirecting again would burn
		// an empty cycle (and break the W = 1 identity).
		if s.slotsUsed > 0 {
			s.redirect(s.curCycle + 1)
		}
	}
	s.fetchOne() // the branch itself, as Step would have
	s.ObserveEvent(ev, out)
	o.expect = int64(ev.Target)
}

// Cycles returns the total cycle count (through pipeline drain).
func (s *Sim) Cycles() int64 {
	if s.drainCycle > s.curCycle {
		return s.drainCycle
	}
	return s.curCycle
}

// FetchCycles returns the cycles spent fetching (no drain), the
// denominator for utilization. A redirect leaves curCycle pointing at a
// fresh group; until something is fetched into it that cycle has not been
// spent (this matters for trace-driven runs, which end on a branch).
func (s *Sim) FetchCycles() int64 {
	if s.slotsUsed == 0 {
		return s.curCycle - 1
	}
	return s.curCycle
}

// CPI is cycles per right-path instruction.
func (s *Sim) CPI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Cycles()) / float64(s.Insts)
}

// IPC is the inverse of CPI.
func (s *Sim) IPC() float64 {
	c := s.CPI()
	if c == 0 {
		return 0
	}
	return 1 / c
}

// CostPerBranch is the branch cost in the paper's currency: the cycles
// beyond the no-branch ideal (Insts/Width), per branch, plus the branch's
// own issue share. At W = 1 it equals the analytic cost A + P(1−A) up to
// the taken-branch group-break term (which is zero at W = 1).
func (s *Sim) CostPerBranch() float64 {
	if s.Branches == 0 {
		return 0
	}
	ideal := (s.Insts + int64(s.Width) - 1) / int64(s.Width)
	extra := float64(s.FetchCycles() - ideal)
	return 1 + extra/float64(s.Branches)
}

// FetchUtilization is the fraction of issued fetch slots holding useful
// (right-path) instructions.
func (s *Sim) FetchUtilization() float64 {
	slots := s.FetchCycles() * int64(s.Width)
	if slots == 0 {
		return 0
	}
	u := float64(s.Insts) / float64(slots)
	if u > 1 {
		u = 1
	}
	return u
}

// Accuracy is the prediction accuracy A realized by this run.
func (s *Sim) Accuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Branches)
}

// redirects is the total number of fetch-address changes: correctly
// predicted taken branches, misprediction recoveries, and (under
// TraceObserver) unrecorded control transfers.
func (s *Sim) redirects() int64 {
	return s.GroupBreaks + s.Mispredicts + s.UnrecordedBreaks
}

// BreakRate is fetch redirects per branch — the calibration input of the
// Superscalar cost model's alignment term.
func (s *Sim) BreakRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.redirects()) / float64(s.Branches)
}

// SustainedRate is the useful fetch rate R: right-path instructions per
// non-dead fetch cycle. Exactly 1 at W = 1 (every live cycle fetches one
// instruction), between 1 and W at wider fetch.
func (s *Sim) SustainedRate() float64 {
	live := s.FetchCycles() - s.DeadCycles
	if live <= 0 {
		return 1
	}
	r := float64(s.Insts) / float64(live)
	if r < 1 {
		r = 1
	}
	return r
}

// EffectiveConfig returns the width-1 analytic operating point this run
// realized: k and ℓ̄ = ℓ as configured, m̄ averaged over the observed
// misprediction mix — the same calibration CycleSim.EffectiveConfig does.
// At W = 1, EffectiveConfig().Cost(Accuracy()) equals CostPerBranch()
// exactly.
func (s *Sim) EffectiveConfig() pipeline.Config {
	mbar := 0.0
	if s.Mispredicts > 0 {
		mbar = float64(s.M) * float64(s.condWrong) / float64(s.Mispredicts)
	}
	return pipeline.Config{K: s.K, LBar: float64(s.L), MBar: mbar}
}

// Superscalar returns the alignment-aware cost model calibrated by this
// run: the effective analytic base plus the measured fetch-break rate.
func (s *Sim) Superscalar() pipeline.Superscalar {
	return pipeline.Superscalar{W: s.Width, Base: s.EffectiveConfig(), BreakRate: s.BreakRate()}
}

// VariableFetch returns the variable-fetch-rate cost model calibrated by
// this run: the effective analytic base inflated by the sustained rate.
func (s *Sim) VariableFetch() pipeline.VariableFetch {
	return pipeline.VariableFetch{W: s.Width, Base: s.EffectiveConfig(), Rate: s.SustainedRate()}
}

// ModelTolerance is the provable agreement bound between the calibrated
// Superscalar model and CostPerBranch. The model charges the expected
// alignment waste (W−1)/(2W) per redirect where the simulation pays the
// actual integer ceil waste of each fetch run — at most (W−1)/W, so the two
// differ by at most (W−1)/(2W) per redirect, plus O(1/Branches) edge terms
// for the final partial run. At W = 1 both terms vanish and the agreement
// is exact (bound: floating-point epsilon only).
func (s *Sim) ModelTolerance() float64 {
	if s.Width == 1 {
		return 1e-9
	}
	align := float64(s.Width-1) / float64(2*s.Width)
	slack := 0.0
	if s.Branches > 0 {
		slack = 4 / float64(s.Branches)
	}
	return s.BreakRate()*align + slack + 1e-9
}
