package fs

import (
	"fmt"

	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
)

// Result is the outcome of the Forward Semantic transform.
type Result struct {
	Prog *isa.Program // the transformed, laid-out program

	OrigSize       int // instructions before the transform
	NewSize        int // instructions after (slots + fixup jumps included)
	SlotInsts      int // copied forward-slot instructions
	NopPadding     int // NO-OP padding in partially filled slot groups
	FixupJumps     int // synthetic jumps restoring positional fall-through
	LikelyBranches int // static branches that received forward slots
	Inversions     int // conditional branches inverted during layout
	NumTraces      int
	SlotCount      int // k+ℓ used

	// PredictTaken holds, by original instruction ID, the direction the
	// layout predicts for each conditional branch, in the original
	// binary's orientation: the likely bit, flipped back where the layout
	// inverted the branch. Other instructions' entries are false. It is
	// what the transformed binary's likely bits say about the original
	// binary's branch stream (see Predictor).
	PredictTaken []bool
}

// CodeGrowth returns the fractional code-size increase (the paper's
// Table 5 metric).
func (r *Result) CodeGrowth() float64 {
	if r.OrigSize == 0 {
		return 0
	}
	return float64(r.NewSize-r.OrigSize) / float64(r.OrigSize)
}

// traceSeq is a trace's instruction sequence under construction.
type traceSeq struct {
	trace *Trace
	code  []isa.Inst
	// canonAt maps instruction ID -> index in code of its canonical copy.
	canonAt map[int32]int32
	// slotEligible is true when the trace ends with a predicted-taken
	// branch that must receive forward slots.
	slotEligible bool
}

// Transform applies the Forward Semantic to p: it assigns likely bits from
// prof, selects traces, lays them out (inverting branches so that
// predicted-taken conditionals sit at trace ends), and fills slotCount
// (= k+ℓ) forward slots after every predicted-taken trace-ending branch,
// copying the first slotCount instructions of the target path and padding
// with NO-OPs when the target trace is shorter (per the paper's filling
// algorithm). slotCount zero performs layout and likely-bit assignment only.
func Transform(p *isa.Program, prof *profile.Profile, slotCount int) (*Result, error) {
	return TransformOpts(p, prof, slotCount, SelectOptions{})
}

// TransformOpts is Transform with explicit trace-selection options.
func TransformOpts(p *isa.Program, prof *profile.Profile, slotCount int, sel SelectOptions) (*Result, error) {
	if slotCount < 0 || slotCount > 255 {
		return nil, fmt.Errorf("fs: slot count %d out of range", slotCount)
	}
	g, err := BuildCFG(p, prof)
	if err != nil {
		return nil, err
	}
	traces := SelectTracesOpts(g, sel)

	res := &Result{OrigSize: len(p.Code), NumTraces: len(traces), SlotCount: slotCount,
		PredictTaken: make([]bool, len(p.Code))}

	stat := func(id int32) *profile.BranchStat {
		if prof == nil {
			return nil
		}
		return prof.Branches[id]
	}

	// Phase A: per-trace base sequences with inversion and likely bits.
	seqs := make([]*traceSeq, len(traces))
	for ti, t := range traces {
		ts := &traceSeq{trace: t, canonAt: map[int32]int32{}}
		for bi, b := range t.Blocks {
			for id := b.Start; id < b.End; id++ {
				in := p.Code[id]
				if in.Op.IsCondBranch() {
					// Invert so the in-trace successor is the fall path.
					inverted := false
					if bi+1 < len(t.Blocks) {
						next := t.Blocks[bi+1]
						if id == b.Terminator() && in.Target == next.Start && in.Fall != next.Start {
							in.Op = in.Op.Invert()
							in.Target, in.Fall = in.Fall, in.Target
							inverted = true
							res.Inversions++
						}
					}
					// Likely bit: the profile majority of the (possibly
					// inverted) taken direction. A tie is not taken, so a
					// tied branch the layout inverted predicts the original
					// taken direction.
					in.Likely = false
					if s := stat(id); s != nil && s.Exec > 0 {
						takenCount := s.Taken
						if inverted {
							takenCount = s.NotTaken()
						}
						in.Likely = takenCount*2 > s.Exec
					}
					res.PredictTaken[id] = in.Likely != inverted
				}
				if in.Op == isa.JMP {
					in.Likely = true
				}
				ts.canonAt[id] = int32(len(ts.code))
				ts.code = append(ts.code, in)
			}
		}
		last := &ts.code[len(ts.code)-1]
		ts.slotEligible = slotCount > 0 &&
			((last.Op.IsCondBranch() && last.Likely) || last.Op == isa.JMP)
		seqs[ti] = ts
	}

	// Locate, for every instruction ID, its trace and index (pre-slots).
	traceOf := make([]int32, len(p.Code))
	for ti, ts := range seqs {
		for id := range ts.canonAt {
			traceOf[id] = int32(ti)
		}
	}

	// Phase B: fill forward slots, lightest trace first (the paper's
	// "for i <- N downto 1"). Copies read the target trace's *current*
	// sequence, so slots inserted into lighter traces can themselves be
	// copied — the compounding the paper's Table 5 shows at large k+ℓ.
	for ti := len(seqs) - 1; ti >= 0; ti-- {
		ts := seqs[ti]
		if !ts.slotEligible {
			continue
		}
		branch := &ts.code[len(ts.code)-1]
		targetID := branch.Target
		u := seqs[traceOf[targetID]]
		off := int(u.canonAt[targetID])
		avail := len(u.code) - off
		if u == ts {
			// The branch targets its own trace (a loop): the copyable
			// region excludes nothing — the sequence is the current one,
			// which ends at this very branch; copying may duplicate it.
			avail = len(ts.code) - off
		}
		copyLen := slotCount
		if copyLen > avail {
			copyLen = avail
		}
		copies := make([]isa.Inst, 0, slotCount)
		for i := 0; i < copyLen; i++ {
			c := u.code[off+i]
			c.IsSlot = true
			copies = append(copies, c)
		}
		for i := copyLen; i < slotCount; i++ {
			copies = append(copies, isa.Inst{Op: isa.NOP, ID: branch.ID, IsSlot: true})
			res.NopPadding++
		}
		branch.Slots = uint8(slotCount)
		ts.code = append(ts.code, copies...)
		res.SlotInsts += copyLen
		res.LikelyBranches++
	}

	// Phase C: concatenate traces in weight order, adding fixup jumps so
	// that positional fall-through matches the label-level fall-through
	// (real hardware resumes fetch after the forward slots).
	nOrig := int32(len(p.Code))
	nextSyntheticID := nOrig
	var out []isa.Inst
	loc := make([]int32, len(p.Code))
	for i := range loc {
		loc[i] = -1
	}

	for ti, ts := range seqs {
		base := int32(len(out))
		for idx, in := range ts.code {
			if !in.IsSlot {
				loc[in.ID] = base + int32(idx)
			}
			out = append(out, in)
		}
		// Does control fall off the end of this trace?
		lastBlock := ts.trace.Blocks[len(ts.trace.Blocks)-1]
		term := p.Code[lastBlock.Terminator()]
		var fallID int32 = -1
		switch {
		case term.Op.IsCondBranch():
			// The (possibly inverted) branch as laid out, not the original.
			fallID = ts.code[int(ts.canonAt[lastBlock.Terminator()])].Fall
		case term.Op == isa.JMP, term.Op == isa.JMPI, term.Op == isa.RET, term.Op == isa.HALT:
			fallID = -1
		default:
			fallID = lastBlock.End // plain fall-through (includes CALL)
		}
		if fallID >= 0 {
			// No jump needed when the next trace begins with the fall
			// target.
			if ti+1 < len(seqs) && seqs[ti+1].trace.Blocks[0].Start == fallID {
				continue
			}
			jmp := isa.Inst{Op: isa.JMP, Target: fallID, ID: nextSyntheticID, Likely: true}
			loc = append(loc, base+int32(len(ts.code)))
			out = append(out, jmp)
			nextSyntheticID++
			res.FixupJumps++
		}
	}

	for id, l := range loc {
		if l < 0 {
			return nil, fmt.Errorf("fs: internal error: instruction %d not laid out", id)
		}
	}

	np := &isa.Program{
		Code:        out,
		Data:        p.Data,
		Words:       p.Words,
		Funcs:       p.Funcs,
		Entry:       p.Entry,
		Loc:         loc,
		SourceLines: p.SourceLines,
	}
	res.Prog = np
	res.NewSize = len(out)
	if err := np.Validate(); err != nil {
		return nil, fmt.Errorf("fs: internal error: transformed program invalid: %w", err)
	}
	return res, nil
}

// SyntheticID reports whether a branch ID was introduced by the transform
// (fixup jumps) rather than present in the original program. Scoring the
// transformed binary's stream skips synthetic branches, so that every scheme
// is scored on the same branch set.
func (r *Result) SyntheticID(id int32) bool { return int(id) >= r.OrigSize }

// Predictor returns the Forward Semantic's predictor for the branch stream
// of orig, the program the transform laid out: conditional branches follow
// PredictTaken, jumps follow predict.LikelyBit's rules with orig's targets.
// Over a recording of orig it gives, event for event, the outcomes
// predict.LikelyBit gives over the transformed binary's stream with
// synthetic branches skipped, so scoring the Forward Semantic needs no run
// of the transformed binary.
func (r *Result) Predictor(orig *isa.Program) predict.Predictor {
	return predict.LikelyTable{Taken: r.PredictTaken, Targets: predict.ProgramTargets{Prog: orig}}
}
