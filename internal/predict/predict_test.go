package predict_test

import (
	"slices"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/vm"
)

// testProg builds a tiny program: a backward conditional at 3, a forward
// conditional at 1, a jump at 5, and an indirect at 6.
func testProg() *isa.Program {
	code := []isa.Inst{
		{Op: isa.NOP, ID: 0},
		{Op: isa.BEQ, Rs: 4, Rt: 0, Target: 4, Fall: 2, ID: 1}, // forward
		{Op: isa.NOP, ID: 2},
		{Op: isa.BNE, Rs: 4, Rt: 0, Target: 0, Fall: 4, ID: 3}, // backward
		{Op: isa.NOP, ID: 4},
		{Op: isa.JMP, Target: 0, ID: 5},
		{Op: isa.JMPI, Rs: 4, Table: []int32{0, 2}, ID: 6},
		{Op: isa.HALT, ID: 7},
	}
	return &isa.Program{Code: code, Words: 8}
}

func ev(pc int32, op isa.Op, taken bool, target int32, likely bool) vm.BranchEvent {
	return vm.BranchEvent{PC: pc, ID: pc, Op: op, Taken: taken, Target: target, Likely: likely}
}

func TestProgramTargets(t *testing.T) {
	pt := predict.ProgramTargets{Prog: testProg()}
	if pt.TargetAt(1) != 4 {
		t.Errorf("cond target = %d", pt.TargetAt(1))
	}
	if pt.TargetAt(5) != 0 {
		t.Errorf("jmp target = %d", pt.TargetAt(5))
	}
	if pt.TargetAt(6) != -1 {
		t.Errorf("jmpi target should be unknown, got %d", pt.TargetAt(6))
	}
}

func TestAlwaysTakenNotTaken(t *testing.T) {
	pt := predict.ProgramTargets{Prog: testProg()}
	at := predict.AlwaysTaken{Targets: pt}
	ant := predict.AlwaysNotTaken{}

	p := at.Predict(ev(1, isa.BEQ, false, 0, false))
	if !p.Taken || p.Target != 4 {
		t.Fatalf("always-taken: %+v", p)
	}
	p = ant.Predict(ev(1, isa.BEQ, true, 4, false))
	if p.Taken {
		t.Fatalf("always-not-taken: %+v", p)
	}
	if at.Name() == "" || ant.Name() == "" {
		t.Fatal("names")
	}
}

func TestBTFNT(t *testing.T) {
	pt := predict.ProgramTargets{Prog: testProg()}
	b := predict.BTFNT{Targets: pt}
	// Forward conditional at 1 -> not taken.
	if p := b.Predict(ev(1, isa.BEQ, true, 4, false)); p.Taken {
		t.Fatalf("forward predicted taken: %+v", p)
	}
	// Backward conditional at 3 -> taken with its target.
	if p := b.Predict(ev(3, isa.BNE, false, 0, false)); !p.Taken || p.Target != 0 {
		t.Fatalf("backward: %+v", p)
	}
	// Unconditionals -> taken.
	if p := b.Predict(ev(5, isa.JMP, true, 0, false)); !p.Taken || p.Target != 0 {
		t.Fatalf("jmp: %+v", p)
	}
	// Indirect -> taken with unknown target (always a target mismatch).
	if p := b.Predict(ev(6, isa.JMPI, true, 2, false)); !p.Taken || p.Target != -1 {
		t.Fatalf("jmpi: %+v", p)
	}
}

func TestLikelyBit(t *testing.T) {
	pt := predict.ProgramTargets{Prog: testProg()}
	l := predict.LikelyBit{Targets: pt}
	if p := l.Predict(ev(1, isa.BEQ, true, 4, true)); !p.Taken || p.Target != 4 {
		t.Fatalf("likely conditional: %+v", p)
	}
	if p := l.Predict(ev(1, isa.BEQ, true, 4, false)); p.Taken {
		t.Fatalf("unlikely conditional: %+v", p)
	}
	if p := l.Predict(ev(5, isa.JMP, true, 0, false)); !p.Taken || p.Target != 0 {
		t.Fatalf("jmp: %+v", p)
	}
	// Indirect jumps always mispredict under the likely-bit format.
	if p := l.Predict(ev(6, isa.JMPI, true, 2, true)); !p.Taken || p.Target != -1 {
		t.Fatalf("jmpi: %+v", p)
	}
}

func TestEvaluatorScoring(t *testing.T) {
	e := &predict.Evaluator{P: predict.AlwaysNotTaken{}}
	// 3 not-taken (correct), 2 taken (wrong).
	for i := 0; i < 3; i++ {
		e.Observe(ev(1, isa.BEQ, false, 0, false))
	}
	for i := 0; i < 2; i++ {
		e.Observe(ev(1, isa.BEQ, true, 4, false))
	}
	if e.S.Branches != 5 || e.S.Correct != 3 {
		t.Fatalf("stats: %+v", e.S)
	}
	if got := e.S.Accuracy(); got != 0.6 {
		t.Fatalf("accuracy = %v", got)
	}
	if e.S.CondBranches != 5 || e.S.CondCorrect != 3 {
		t.Fatalf("cond stats: %+v", e.S)
	}
	if got := e.S.CondAccuracy(); got != 0.6 {
		t.Fatalf("cond accuracy = %v", got)
	}
}

func TestEvaluatorTargetMismatchIsWrong(t *testing.T) {
	pt := predict.ProgramTargets{Prog: testProg()}
	e := &predict.Evaluator{P: predict.AlwaysTaken{Targets: pt}}
	// Branch taken but to a different place than the static target would
	// suggest is impossible for direct branches; use the indirect jump:
	// prediction taken with target -1, actual 2 -> direction right, target
	// wrong, must score as incorrect.
	e.Observe(ev(6, isa.JMPI, true, 2, false))
	if e.S.Correct != 0 || e.S.DirRight != 1 {
		t.Fatalf("target mismatch scored wrong: %+v", e.S)
	}
}

func TestEvaluatorIgnoresCalls(t *testing.T) {
	e := &predict.Evaluator{P: predict.AlwaysNotTaken{}}
	e.Observe(ev(0, isa.CALL, true, 5, false))
	if e.S.Branches != 0 {
		t.Fatalf("CALL scored: %+v", e.S)
	}
}

func TestEvaluatorFlushEvery(t *testing.T) {
	// A predictor that is correct only when it has state: track resets.
	resets := 0
	p := &resetCounter{onReset: func() { resets++ }}
	e := &predict.Evaluator{P: p, FlushEvery: 10}
	for i := 0; i < 35; i++ {
		e.Observe(ev(1, isa.BEQ, false, 0, false))
	}
	// A flush fires before the 11th, 21st and 31st branches.
	if resets != 3 {
		t.Fatalf("resets = %d, want 3", resets)
	}
}

type resetCounter struct {
	onReset func()
	n       int64
}

func (r *resetCounter) Name() string { return "reset-counter" }
func (r *resetCounter) Predict(vm.BranchEvent) predict.Prediction {
	return predict.Prediction{Hit: true}
}
func (r *resetCounter) Update(vm.BranchEvent) { r.n++ }
func (r *resetCounter) Reset()                { r.onReset() }

func TestStatsAdd(t *testing.T) {
	a := predict.Stats{Branches: 10, Correct: 8, DirRight: 9, Hits: 7, Misses: 3, CondBranches: 6, CondCorrect: 5}
	b := predict.Stats{Branches: 5, Correct: 2, DirRight: 3, Hits: 1, Misses: 4, CondBranches: 2, CondCorrect: 1}
	a.Add(b)
	if a.Branches != 15 || a.Correct != 10 || a.DirRight != 12 || a.Hits != 8 ||
		a.Misses != 7 || a.CondBranches != 8 || a.CondCorrect != 6 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.MissRatio() != 7.0/15 {
		t.Fatalf("miss ratio %v", a.MissRatio())
	}
}

func TestEmptyStats(t *testing.T) {
	var s predict.Stats
	if s.Accuracy() != 1 || s.MissRatio() != 0 || s.CondAccuracy() != 1 {
		t.Fatal("empty stats must be benign")
	}
}

// outcomeLog is an Observer keeping every outcome.
type outcomeLog []predict.Outcome

func (l *outcomeLog) ObserveEvent(_ vm.BranchEvent, out predict.Outcome) { *l = append(*l, out) }

// TestObserversFanOut: every observer attached through Observers sees each
// scored branch's verdict, in order; unscored CALL events reach none.
func TestObserversFanOut(t *testing.T) {
	var a, b outcomeLog
	e := &predict.Evaluator{P: predict.AlwaysNotTaken{}, Obs: predict.Observers{&a, &b}}
	e.Observe(ev(1, isa.BEQ, false, 0, false)) // correct
	e.Observe(ev(0, isa.CALL, true, 5, false)) // not scored
	e.Observe(ev(1, isa.BEQ, true, 4, false))  // wrong
	for _, got := range []outcomeLog{a, b} {
		if len(got) != 2 || !got[0].Correct || got[1].Correct || got[0].Index != 0 || got[1].Index != 1 {
			t.Fatalf("observed outcomes: %+v", got)
		}
	}
}

// TestEvaluatorObserveBlock: scoring a stream block by block must match
// scoring it event by event — flush period and observers included —
// wherever the block boundaries fall.
func TestEvaluatorObserveBlock(t *testing.T) {
	var evs []vm.BranchEvent
	for i := 0; i < 300; i++ {
		pc := int32(i % 13)
		evs = append(evs, ev(pc, isa.BEQ, i%3 != 0, pc+7, false))
	}
	type run struct {
		e        *predict.Evaluator
		obs, two outcomeLog
	}
	mk := func() *run {
		r := &run{}
		r.e = &predict.Evaluator{P: btb.NewSBTB(4, 4), FlushEvery: 17, Obs: predict.Observers{&r.obs, &r.two}}
		return r
	}
	one := mk()
	for _, x := range evs {
		one.e.Observe(x)
	}
	blocks := mk()
	for lo, n := 0, 1; lo < len(evs); lo, n = lo+n, n+5 {
		blocks.e.ObserveBlock(evs[lo:min(lo+n, len(evs))])
	}
	if blocks.e.S != one.e.S || !slices.Equal(blocks.obs, one.obs) {
		t.Fatalf("block scoring diverged:\nblocks %+v\nevents %+v", blocks.e.S, one.e.S)
	}
	if len(one.obs) != len(evs) || !slices.Equal(one.two, one.obs) || !slices.Equal(blocks.two, blocks.obs) {
		t.Fatalf("observers saw different outcome sequences: %d/%d/%d/%d of %d events",
			len(one.obs), len(one.two), len(blocks.obs), len(blocks.two), len(evs))
	}
}

func TestOpcodeBias(t *testing.T) {
	// Build a profile where BEQ branches are mostly taken and BNE mostly
	// not-taken.
	prof := profile.New()
	col := &profile.Collector{P: prof}
	h := col.Hook()
	for i := 0; i < 10; i++ {
		h(ev(1, isa.BEQ, i < 8, 4, false)) // 80% taken
		h(ev(3, isa.BNE, i < 2, 0, false)) // 20% taken
	}
	ob := predict.NewOpcodeBias(prof, predict.ProgramTargets{Prog: testProg()})
	if p := ob.Predict(ev(1, isa.BEQ, false, 0, false)); !p.Taken || p.Target != 4 {
		t.Fatalf("beq should predict taken: %+v", p)
	}
	if p := ob.Predict(ev(3, isa.BNE, true, 0, false)); p.Taken {
		t.Fatalf("bne should predict not-taken: %+v", p)
	}
	if p := ob.Predict(ev(5, isa.JMP, true, 0, false)); !p.Taken || p.Target != 0 {
		t.Fatalf("jmp: %+v", p)
	}
	if p := ob.Predict(ev(6, isa.JMPI, true, 2, false)); !p.Taken || p.Target != -1 {
		t.Fatalf("jmpi: %+v", p)
	}
	if ob.Name() != "opcode-bias" {
		t.Fatal("name")
	}
	// Unseen opcode: defaults to not-taken (the pipeline default).
	if p := ob.Predict(ev(1, isa.BLT, true, 4, false)); p.Taken {
		t.Fatalf("unseen opcode should default to not-taken: %+v", p)
	}
}
