package predict

import (
	"branchcost/internal/isa"
	"branchcost/internal/profile"
	"branchcost/internal/vm"
)

// The static baselines discussed in the paper's introduction. None of them
// can supply a target for indirect jumps, so a taken prediction for a JMPI
// uses target -1 (always wrong), matching the "unknown target" problem the
// paper describes. Direct jumps are predicted perfectly by every scheme that
// predicts taken, because their target is in the instruction.

// staticBase implements the shared plumbing of stateless predictors: each
// static baseline predicts from the branch's site alone, so it is Stateless.
type staticBase struct{}

func (staticBase) Update(vm.BranchEvent) {}
func (staticBase) Reset()                {}

// Stateless implements Stateless.
func (staticBase) Stateless() {}

// TargetResolver supplies a static predictor with the statically-known
// taken target of the branch at pc (-1 when no target is encodable, as for
// indirect jumps). ProgramTargets is the production resolver; trace-level
// harnesses (differential fuzzing against internal/oracle) substitute
// synthetic resolvers to score the statics without a compiled program.
type TargetResolver interface {
	TargetAt(pc int32) int32
}

// TargetFunc adapts a plain function to a TargetResolver.
type TargetFunc func(pc int32) int32

// TargetAt implements TargetResolver.
func (f TargetFunc) TargetAt(pc int32) int32 { return f(pc) }

// ProgramTargets adapts an isa.Program for static predictors, resolving
// direct branch targets to canonical code positions.
type ProgramTargets struct{ Prog *isa.Program }

// TargetAt returns the canonical position of the taken target of the
// instruction at pc, or -1 for indirect jumps.
func (p ProgramTargets) TargetAt(pc int32) int32 {
	in := p.Prog.Code[pc]
	switch {
	case in.Op.IsCondBranch(), in.Op == isa.JMP:
		return p.Prog.Canonical(in.Target)
	default:
		return -1
	}
}

// AlwaysTaken predicts every branch taken (to its static target).
type AlwaysTaken struct {
	staticBase
	Targets TargetResolver
}

// Name implements Predictor.
func (AlwaysTaken) Name() string { return "always-taken" }

// Predict implements Predictor.
func (a AlwaysTaken) Predict(ev vm.BranchEvent) Prediction {
	return Prediction{Taken: true, Target: a.Targets.TargetAt(ev.PC), Hit: true}
}

// AlwaysNotTaken predicts every branch not taken (the bare pipeline's
// behaviour when no scheme is present).
type AlwaysNotTaken struct{ staticBase }

// Name implements Predictor.
func (AlwaysNotTaken) Name() string { return "always-not-taken" }

// Predict implements Predictor.
func (AlwaysNotTaken) Predict(vm.BranchEvent) Prediction {
	return Prediction{Taken: false, Hit: true}
}

// BTFNT predicts backward branches taken and forward branches not taken
// (J. E. Smith's strategy; backward branches close loops). Unconditional
// jumps are predicted taken.
type BTFNT struct {
	staticBase
	Targets TargetResolver
}

// Name implements Predictor.
func (BTFNT) Name() string { return "btfnt" }

// Predict implements Predictor.
func (b BTFNT) Predict(ev vm.BranchEvent) Prediction {
	t := b.Targets.TargetAt(ev.PC)
	if ev.Op == isa.JMP || ev.Op == isa.JMPI {
		return Prediction{Taken: true, Target: t, Hit: true}
	}
	if t >= 0 && t <= ev.PC {
		return Prediction{Taken: true, Target: t, Hit: true}
	}
	return Prediction{Taken: false, Hit: true}
}

// LikelyBit predicts with the compiler's likely-taken bit carried in the
// instruction encoding — the Forward Semantic's prediction mechanism.
// Conditional branches follow the bit; direct jumps are taken; indirect
// jumps have no encodable target and thus always mispredict.
type LikelyBit struct {
	staticBase
	Targets TargetResolver
}

// Name implements Predictor.
func (LikelyBit) Name() string { return "forward-semantic" }

// Predict implements Predictor.
func (l LikelyBit) Predict(ev vm.BranchEvent) Prediction {
	return likely(ev, ev.Likely, l.Targets)
}

// LikelyTable is LikelyBit with the conditional directions in a table
// instead of the encoding: a conditional branch goes the way Taken[ev.ID]
// says. It scores a Forward Semantic layout over the original binary's
// branch stream; fs.Result.Predictor builds it from the layout.
type LikelyTable struct {
	staticBase
	Taken   []bool // by instruction ID
	Targets TargetResolver
}

// Name implements Predictor.
func (LikelyTable) Name() string { return "forward-semantic" }

// Predict implements Predictor.
func (l LikelyTable) Predict(ev vm.BranchEvent) Prediction {
	return likely(ev, l.Taken[ev.ID], l.Targets)
}

// likely applies LikelyBit's rules, with taken as a conditional branch's
// predicted direction: direct jumps are taken to their static target,
// indirect jumps are taken to -1, and every prediction is a hit.
func likely(ev vm.BranchEvent, taken bool, targets TargetResolver) Prediction {
	switch {
	case ev.Op == isa.JMPI:
		return Prediction{Taken: true, Target: -1, Hit: true}
	case ev.Op == isa.JMP, taken:
		return Prediction{Taken: true, Target: targets.TargetAt(ev.PC), Hit: true}
	default:
		return Prediction{Taken: false, Hit: true}
	}
}

// OpcodeBias predicts by branch opcode: each conditional opcode carries a
// fixed direction derived from aggregate profiling ("associate a prediction
// with the opcode of the branch instruction", stored in ROM or microcode in
// the paper's related work; reported 66.2%–86.7% accurate there). Build it
// from a profile with NewOpcodeBias.
type OpcodeBias struct {
	staticBase
	Targets TargetResolver
	taken   map[isa.Op]bool
}

// NewOpcodeBias derives the per-opcode directions from a profile.
func NewOpcodeBias(prof *profile.Profile, targets TargetResolver) OpcodeBias {
	exec := map[isa.Op]int64{}
	tkn := map[isa.Op]int64{}
	for _, b := range prof.Branches {
		if b.Op.IsCondBranch() {
			exec[b.Op] += b.Exec
			tkn[b.Op] += b.Taken
		}
	}
	taken := map[isa.Op]bool{}
	for op, e := range exec {
		taken[op] = tkn[op]*2 > e
	}
	return OpcodeBias{Targets: targets, taken: taken}
}

// Name implements Predictor.
func (OpcodeBias) Name() string { return "opcode-bias" }

// Predict implements Predictor.
func (o OpcodeBias) Predict(ev vm.BranchEvent) Prediction {
	switch {
	case ev.Op == isa.JMP:
		return Prediction{Taken: true, Target: o.Targets.TargetAt(ev.PC), Hit: true}
	case ev.Op == isa.JMPI:
		return Prediction{Taken: true, Target: -1, Hit: true}
	case o.taken[ev.Op]:
		return Prediction{Taken: true, Target: o.Targets.TargetAt(ev.PC), Hit: true}
	default:
		return Prediction{Taken: false, Hit: true}
	}
}
