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
// The simulator does no predicting of its own: it charges cycles for the
// outcomes a predict.Evaluator reports, so one evaluator — one predictor —
// drives any number of simulators at once, one per fetch width. Fetch is
// rebuilt from a recorded branch trace and its program (TraceObserver), so
// the trace-driven simulation is exact at every width, with no VM pass.
package pipesim

import (
	"fmt"
	"strings"

	"branchcost/internal/isa"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// Sim accumulates cycle counts for one run. TraceObserver drives it from a
// recorded trace, which is how the frontend cost models are calibrated; the
// live wiring (Step as a vm.Config Trace, the Sim as the evaluator's
// observer) is the reference the trace-driven path is tested against.
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

	condWrong int64

	// fetch state: cycle currently being filled and slots used in it.
	curCycle  int64
	slotsUsed int
	// drainCycle is the cycle the last instruction leaves the pipe.
	drainCycle int64
}

// ParseWidths parses a comma-separated list of fetch widths (the CLIs'
// -width flag); an empty list gives nil.
func ParseWidths(sel string) ([]int, error) {
	if sel == "" {
		return nil, nil
	}
	var widths []int
	for _, part := range strings.Split(sel, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad -width element %q (want positive integers)", part)
		}
		widths = append(widths, w)
	}
	return widths, nil
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

// redirect moves fetch to a new address at the given cycle: the current
// group ends and the next instruction starts a fresh group.
func (s *Sim) redirect(at int64) {
	if at <= s.curCycle {
		at = s.curCycle + 1
	}
	s.curCycle = at
	s.slotsUsed = 0
}

// Step accounts one executed instruction's fetch from a live run's trace
// hook: the reference TraceObserver is tested against.
func (s *Sim) Step(pos int32) {
	s.fetchRun(1)
}

// ObserveEvent makes the simulator a predict.Observer: it applies the
// semantics of a branch already fetched — group breaks and misprediction
// redirects — for the outcome the evaluator reports (the live reference
// pairs it with Step as the VM's trace hook). CALL/RET redirect fetch too,
// but the evaluator does not score them, so they are fetched as
// straight-line code and not studied here.
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

// fetchRun accounts n sequential right-path instructions entering the pipe,
// in O(1): Step fetches one, TraceObserver each walked run at once.
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

// TraceObserver returns the observer that drives sims from tr, a recorded
// branch stream of prog: attach it to the evaluator that replays tr, then
// call Finish. One walk of prog (vm.Walk) fetches every position the runs
// executed into all of sims, so each ends in the state the live wiring
// (Step) leaves it in, at every width.
func TraceObserver(prog *isa.Program, tr *tracefile.Trace, sims ...*Sim) *Traced {
	return &Traced{walk: vm.NewWalk(prog, tr.Steps, tr.Runs), sims: sims}
}

// Traced is the trace-driven observer TraceObserver returns.
type Traced struct {
	walk *vm.Walk
	sims []*Sim
}

// fetch hands one walked run of positions to every simulator.
func (t *Traced) fetch(start, end int32) {
	for _, s := range t.sims {
		s.fetchRun(int64(end - start))
	}
}

// ObserveEvent implements predict.Observer: it fetches every position up to
// and including ev's branch, then applies the branch's outcome. Once the
// walk has failed, events are ignored and Finish reports the failure.
func (t *Traced) ObserveEvent(ev vm.BranchEvent, out predict.Outcome) {
	if t.walk.Event(ev, t.fetch) != nil {
		return
	}
	for _, s := range t.sims {
		s.ObserveEvent(ev, out)
	}
}

// Finish fetches the tail after the last event, through the final HALT,
// and returns the walk's first error (vm.ErrWalk): a stream that does not
// fit prog leaves the simulators meaningless.
func (t *Traced) Finish() error { return t.walk.Finish(t.fetch) }

// Cycles returns the total cycle count (through pipeline drain).
func (s *Sim) Cycles() int64 {
	if s.drainCycle > s.curCycle {
		return s.drainCycle
	}
	return s.curCycle
}

// FetchCycles returns the cycles spent fetching (no drain), the
// denominator for utilization. A redirect leaves curCycle at a fresh group
// that is spent only once something is fetched into it; every run ends by
// fetching its HALT, so after a whole stream curCycle has been spent.
func (s *Sim) FetchCycles() int64 { return s.curCycle }

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

// redirects is the total number of fetch-address changes the simulator
// charges: correctly predicted taken branches and misprediction recoveries.
func (s *Sim) redirects() int64 {
	return s.GroupBreaks + s.Mispredicts
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
