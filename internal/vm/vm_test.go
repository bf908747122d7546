package vm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/vm"
)

// prog builds a program from instructions, assigning IDs and default Falls.
func prog(ins ...isa.Inst) *isa.Program {
	for i := range ins {
		ins[i].ID = int32(i)
		if ins[i].Op.IsCondBranch() && ins[i].Fall == 0 {
			ins[i].Fall = int32(i) + 1
		}
	}
	return &isa.Program{Code: ins, Words: 64}
}

func run(t *testing.T, p *isa.Program, input []byte) vm.Result {
	t.Helper()
	res, err := vm.Run(p, input, nil, vm.Config{MemWords: 4096})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestALUOps(t *testing.T) {
	// Compute a few values and OUT them.
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 20},
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 6},
		isa.Inst{Op: isa.ADD, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 26
		isa.Inst{Op: isa.SUB, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 14
		isa.Inst{Op: isa.MUL, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 120
		isa.Inst{Op: isa.DIV, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 3
		isa.Inst{Op: isa.MOD, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 2
		isa.Inst{Op: isa.AND, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 4
		isa.Inst{Op: isa.OR, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 22
		isa.Inst{Op: isa.XOR, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 18
		isa.Inst{Op: isa.SHL, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 20<<6 = 1280 -> byte 0
		isa.Inst{Op: isa.SHR, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 0
		isa.Inst{Op: isa.SLT, Rd: 6, Rs: 5, Rt: 4},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 1
		isa.Inst{Op: isa.SLE, Rd: 6, Rs: 4, Rt: 4},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 1
		isa.Inst{Op: isa.SEQ, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 0
		isa.Inst{Op: isa.SNE, Rd: 6, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 1
		isa.Inst{Op: isa.HALT},
	)
	res := run(t, p, nil)
	want := []byte{26, 14, 120, 3, 2, 4, 22, 18, 0, 0, 1, 1, 0, 1}
	if string(res.Output) != string(want) {
		t.Fatalf("got %v want %v", res.Output, want)
	}
}

func TestImmediateOps(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 10},
		isa.Inst{Op: isa.ADDI, Rd: 5, Rs: 4, Imm: -3},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 7
		isa.Inst{Op: isa.MULI, Rd: 5, Rs: 4, Imm: 3},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 30
		isa.Inst{Op: isa.ANDI, Rd: 5, Rs: 4, Imm: 6},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 2
		isa.Inst{Op: isa.ORI, Rd: 5, Rs: 4, Imm: 5},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 15
		isa.Inst{Op: isa.SHLI, Rd: 5, Rs: 4, Imm: 2},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 40
		isa.Inst{Op: isa.SHRI, Rd: 5, Rs: 4, Imm: 1},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 5
		isa.Inst{Op: isa.SLTI, Rd: 5, Rs: 4, Imm: 11},
		isa.Inst{Op: isa.OUT, Rs: 5}, // 1
		isa.Inst{Op: isa.MOV, Rd: 6, Rs: 4},
		isa.Inst{Op: isa.OUT, Rs: 6}, // 10
		isa.Inst{Op: isa.HALT},
	)
	res := run(t, p, nil)
	want := []byte{7, 30, 2, 15, 40, 5, 1, 10}
	if string(res.Output) != string(want) {
		t.Fatalf("got %v want %v", res.Output, want)
	}
}

func TestMemoryAndDataSegment(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LD, Rd: 4, Rs: isa.RZ, Imm: 2}, // data[2] = 77
		isa.Inst{Op: isa.OUT, Rs: 4},
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 10},
		isa.Inst{Op: isa.ST, Rs: isa.RZ, Imm: 11, Rt: 4},
		isa.Inst{Op: isa.LD, Rd: 6, Rs: 5, Imm: 1}, // mem[11]
		isa.Inst{Op: isa.OUT, Rs: 6},
		isa.Inst{Op: isa.HALT},
	)
	p.Data = []int64{0, 0, 77}
	res := run(t, p, nil)
	if string(res.Output) != string([]byte{77, 77}) {
		t.Fatalf("got %v", res.Output)
	}
}

func TestBranchesAndEvents(t *testing.T) {
	// Loop 3 times via BLT, then fall through.
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 0},           // 0
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 3},           // 1
		isa.Inst{Op: isa.ADDI, Rd: 4, Rs: 4, Imm: 1},   // 2
		isa.Inst{Op: isa.BLT, Rs: 4, Rt: 5, Target: 2}, // 3
		isa.Inst{Op: isa.HALT},                         // 4
	)
	var evs []vm.BranchEvent
	res, err := vm.Run(p, nil, func(ev vm.BranchEvent) { evs = append(evs, ev) }, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 3 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if !evs[0].Taken || !evs[1].Taken || evs[2].Taken {
		t.Fatalf("taken pattern wrong: %+v", evs)
	}
	if evs[0].Target != 2 || evs[0].PC != 3 || evs[0].Op != isa.BLT {
		t.Fatalf("event fields wrong: %+v", evs[0])
	}
}

func TestJmpiAndTables(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.IN, Rd: 4},                            // 0
		isa.Inst{Op: isa.JMPI, Rs: 4, Table: []int32{3, 5, 7}}, // 1
		isa.Inst{Op: isa.HALT},                                 // 2
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 'a'},                 // 3
		isa.Inst{Op: isa.JMP, Target: 8},                       // 4
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 'b'},                 // 5
		isa.Inst{Op: isa.JMP, Target: 8},                       // 6
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: 'c'},                 // 7
		isa.Inst{Op: isa.OUT, Rs: 5},                           // 8
		isa.Inst{Op: isa.HALT},                                 // 9
	)
	for i, want := range []byte{'a', 'b', 'c'} {
		res := run(t, p, []byte{byte(i)})
		if len(res.Output) != 1 || res.Output[0] != want {
			t.Fatalf("case %d: got %q", i, res.Output)
		}
	}
	// Out-of-range index traps.
	if _, err := vm.Run(p, []byte{9}, nil, vm.Config{}); !errors.Is(err, vm.ErrJumpTable) {
		t.Fatalf("expected jump-table trap, got %v", err)
	}
}

func TestCallRet(t *testing.T) {
	// CALL at 1 -> function at 4 that OUTs and returns; RA = ID+1 = 2.
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 'x'}, // 0
		isa.Inst{Op: isa.CALL, Target: 4},      // 1
		isa.Inst{Op: isa.OUT, Rs: 4},           // 2 (after return)
		isa.Inst{Op: isa.HALT},                 // 3
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 'y'}, // 4
		isa.Inst{Op: isa.RET},                  // 5
	)
	res := run(t, p, nil)
	if string(res.Output) != "y" {
		t.Fatalf("got %q", res.Output)
	}
	// CALL emits a hook event (not counted as a branch).
	var calls int
	res2, err := vm.Run(p, nil, func(ev vm.BranchEvent) {
		if ev.Op == isa.CALL {
			calls++
		}
	}, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res2.Branches != 0 {
		t.Fatalf("calls=%d branches=%d", calls, res2.Branches)
	}
}

func TestInputExhaustion(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.IN, Rd: 4},
		isa.Inst{Op: isa.OUT, Rs: 4},
		isa.Inst{Op: isa.IN, Rd: 4},
		isa.Inst{Op: isa.SLTI, Rd: 5, Rs: 4, Imm: 0}, // 1 if EOF (-1)
		isa.Inst{Op: isa.OUT, Rs: 5},
		isa.Inst{Op: isa.HALT},
	)
	res := run(t, p, []byte{42})
	if string(res.Output) != string([]byte{42, 1}) {
		t.Fatalf("got %v", res.Output)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name string
		p    *isa.Program
		in   []byte
		want error
	}{
		{"div by zero", prog(
			isa.Inst{Op: isa.LDI, Rd: 4, Imm: 1},
			isa.Inst{Op: isa.DIV, Rd: 4, Rs: 4, Rt: 0},
			isa.Inst{Op: isa.HALT}), nil, vm.ErrDivByZero},
		{"mod by zero", prog(
			isa.Inst{Op: isa.MOD, Rd: 4, Rs: 4, Rt: 0},
			isa.Inst{Op: isa.HALT}), nil, vm.ErrDivByZero},
		{"load out of range", prog(
			isa.Inst{Op: isa.LDI, Rd: 4, Imm: 1 << 40},
			isa.Inst{Op: isa.LD, Rd: 4, Rs: 4},
			isa.Inst{Op: isa.HALT}), nil, vm.ErrMemRange},
		{"store negative", prog(
			isa.Inst{Op: isa.LDI, Rd: 4, Imm: -5},
			isa.Inst{Op: isa.ST, Rs: 4, Rt: 4},
			isa.Inst{Op: isa.HALT}), nil, vm.ErrMemRange},
		{"fell off end", prog(
			isa.Inst{Op: isa.NOP}), nil, vm.ErrNoHalt},
		{"bad return address", prog(
			isa.Inst{Op: isa.LDI, Rd: isa.RA, Imm: 1000},
			isa.Inst{Op: isa.RET},
			isa.Inst{Op: isa.HALT}), nil, vm.ErrBadRA},
	}
	for _, c := range cases {
		_, err := vm.Run(c.p, c.in, nil, vm.Config{MemWords: 128})
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestMaxStepsTrap(t *testing.T) {
	p := prog(isa.Inst{Op: isa.JMP, Target: 0})
	_, err := vm.Run(p, nil, nil, vm.Config{MaxSteps: 1000})
	if !errors.Is(err, vm.ErrMaxSteps) {
		t.Fatalf("got %v", err)
	}
}

// TestRunContextDeadlineKillsHungProgram: the context watchdog must stop an
// infinite loop soon after the deadline, long before the MaxSteps budget,
// and surface the context's error through the trap chain.
func TestRunContextDeadlineKillsHungProgram(t *testing.T) {
	p := prog(isa.Inst{Op: isa.JMP, Target: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := vm.RunContext(ctx, p, nil, nil, vm.Config{MemWords: 128})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	if res.Steps == 0 {
		t.Fatal("trap reported no executed steps")
	}
}

// TestRunContextCancelKillsHungProgram: same watchdog, caller-side cancel.
func TestRunContextCancelKillsHungProgram(t *testing.T) {
	p := prog(isa.Inst{Op: isa.JMP, Target: 0})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := vm.RunContext(ctx, p, nil, nil, vm.Config{MemWords: 128})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in chain", err)
	}
}

func TestRegisterZeroStaysZero(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: isa.RZ, Imm: 99}, // attempt to write r0
		isa.Inst{Op: isa.OUT, Rs: isa.RZ},
		isa.Inst{Op: isa.HALT},
	)
	res := run(t, p, nil)
	if res.Output[0] != 0 {
		t.Fatalf("r0 was written: %v", res.Output)
	}
}

func TestStepCounting(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.NOP},
		isa.Inst{Op: isa.HALT},
	)
	res := run(t, p, nil)
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3 (HALT included)", res.Steps)
	}
}

// TestComparisonSemantics property-checks conditional branch outcomes
// against Go's comparisons for arbitrary operands.
func TestComparisonSemantics(t *testing.T) {
	ops := []struct {
		op isa.Op
		f  func(a, b int64) bool
	}{
		{isa.BEQ, func(a, b int64) bool { return a == b }},
		{isa.BNE, func(a, b int64) bool { return a != b }},
		{isa.BLT, func(a, b int64) bool { return a < b }},
		{isa.BGE, func(a, b int64) bool { return a >= b }},
		{isa.BLE, func(a, b int64) bool { return a <= b }},
		{isa.BGT, func(a, b int64) bool { return a > b }},
	}
	for _, o := range ops {
		o := o
		check := func(a, b int64) bool {
			p := prog(
				isa.Inst{Op: isa.LDI, Rd: 4, Imm: a},
				isa.Inst{Op: isa.LDI, Rd: 5, Imm: b},
				isa.Inst{Op: o.op, Rs: 4, Rt: 5, Target: 5}, // taken -> OUT 1
				isa.Inst{Op: isa.OUT, Rs: isa.RZ},           // not taken -> OUT 0
				isa.Inst{Op: isa.HALT},
				isa.Inst{Op: isa.LDI, Rd: 6, Imm: 1},
				isa.Inst{Op: isa.OUT, Rs: 6},
				isa.Inst{Op: isa.HALT},
			)
			res, err := vm.Run(p, nil, nil, vm.Config{})
			if err != nil {
				return false
			}
			return (res.Output[0] == 1) == o.f(a, b)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", o.op, err)
		}
	}
}

// TestArithmeticSemantics property-checks ALU results via OUT of the low
// byte (full-width checks happen through memory).
func TestArithmeticSemantics(t *testing.T) {
	check := func(a, b int64) bool {
		p := prog(
			isa.Inst{Op: isa.LDI, Rd: 4, Imm: a},
			isa.Inst{Op: isa.LDI, Rd: 5, Imm: b},
			isa.Inst{Op: isa.ADD, Rd: 6, Rs: 4, Rt: 5},
			isa.Inst{Op: isa.ST, Rs: isa.RZ, Imm: 0, Rt: 6},
			isa.Inst{Op: isa.SUB, Rd: 6, Rs: 4, Rt: 5},
			isa.Inst{Op: isa.ST, Rs: isa.RZ, Imm: 1, Rt: 6},
			isa.Inst{Op: isa.XOR, Rd: 6, Rs: 4, Rt: 5},
			isa.Inst{Op: isa.ST, Rs: isa.RZ, Imm: 2, Rt: 6},
			isa.Inst{Op: isa.LD, Rd: 7, Rs: isa.RZ, Imm: 0},
			isa.Inst{Op: isa.LD, Rd: 8, Rs: isa.RZ, Imm: 1},
			isa.Inst{Op: isa.LD, Rd: 9, Rs: isa.RZ, Imm: 2},
			isa.Inst{Op: isa.SEQ, Rd: 10, Rs: 7, Rt: 7},
			isa.Inst{Op: isa.HALT},
		)
		// Re-run and read memory through a second program is overkill; use
		// OUT of byte decompositions instead: compare against expected via
		// separate OUTs.
		out := func(v int64) []byte {
			return []byte{byte(v), byte(v >> 8), byte(v >> 16)}
		}
		q := prog(
			isa.Inst{Op: isa.LDI, Rd: 4, Imm: a},
			isa.Inst{Op: isa.LDI, Rd: 5, Imm: b},
			isa.Inst{Op: isa.ADD, Rd: 6, Rs: 4, Rt: 5},
			isa.Inst{Op: isa.OUT, Rs: 6},
			isa.Inst{Op: isa.SHRI, Rd: 7, Rs: 6, Imm: 8},
			isa.Inst{Op: isa.OUT, Rs: 7},
			isa.Inst{Op: isa.SHRI, Rd: 7, Rs: 6, Imm: 16},
			isa.Inst{Op: isa.OUT, Rs: 7},
			isa.Inst{Op: isa.HALT},
		)
		_ = p
		res, err := vm.Run(q, nil, nil, vm.Config{})
		if err != nil {
			return false
		}
		return string(res.Output) == string(out(a+b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	p := prog(isa.Inst{Op: isa.HALT})
	if _, err := vm.Run(p, nil, nil, vm.Config{}); err != nil {
		t.Fatalf("zero config must work: %v", err)
	}
}

// TestTraceHookSeesEveryInstruction: the fetch-trace hook fires once per
// executed instruction, in order, and agrees with Steps.
func TestTraceHookSeesEveryInstruction(t *testing.T) {
	p := prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 0},           // 0
		isa.Inst{Op: isa.ADDI, Rd: 4, Rs: 4, Imm: 1},   // 1
		isa.Inst{Op: isa.SLTI, Rd: 5, Rs: 4, Imm: 3},   // 2
		isa.Inst{Op: isa.BNE, Rs: 5, Rt: 0, Target: 1}, // 3
		isa.Inst{Op: isa.HALT},                         // 4
	)
	var tracePositions []int32
	res, err := vm.Run(p, nil, nil, vm.Config{Trace: func(pos int32) {
		tracePositions = append(tracePositions, pos)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(tracePositions)) != res.Steps {
		t.Fatalf("trace saw %d positions, steps = %d", len(tracePositions), res.Steps)
	}
	want := []int32{0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4}
	if fmt.Sprint(tracePositions) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", tracePositions, want)
	}
}

// dirtyProg writes marker into every word of a words-word memory, then ends
// with end: a HALT, an out-of-range load, or a loop the step budget or a
// cancelled context ends.
func dirtyProg(words, marker int64, end isa.Inst) *isa.Program {
	return prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 0},
		isa.Inst{Op: isa.LDI, Rd: 5, Imm: marker},
		isa.Inst{Op: isa.LDI, Rd: 6, Imm: words},
		isa.Inst{Op: isa.ST, Rs: 4, Rt: 5},
		isa.Inst{Op: isa.ADDI, Rd: 4, Rs: 4, Imm: 1},
		isa.Inst{Op: isa.BLT, Rs: 4, Rt: 6, Target: 3},
		end,
	)
}

// orProg outputs the low byte of the OR of every word of a words-word
// memory: 0 when the run found its memory zeroed.
func orProg(words int64) *isa.Program {
	return prog(
		isa.Inst{Op: isa.LDI, Rd: 4, Imm: 0},
		isa.Inst{Op: isa.LDI, Rd: 7, Imm: 0},
		isa.Inst{Op: isa.LDI, Rd: 6, Imm: words},
		isa.Inst{Op: isa.LD, Rd: 5, Rs: 4},
		isa.Inst{Op: isa.OR, Rd: 7, Rs: 7, Rt: 5},
		isa.Inst{Op: isa.ADDI, Rd: 4, Rs: 4, Imm: 1},
		isa.Inst{Op: isa.BLT, Rs: 4, Rt: 6, Target: 3},
		isa.Inst{Op: isa.OUT, Rs: 7},
		isa.Inst{Op: isa.HALT},
	)
}

// TestRunsNeverShareMemory: data memory is pooled across runs, and a run
// must still start from zeroed memory whatever the run before it wrote and
// however that run ended — a halt, a trap, the step budget or a cancelled
// context — and whatever memory size either run used.
func TestRunsNeverShareMemory(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const small, large = 4096, 8192
	for _, tc := range []struct {
		name         string
		dirty, check int64 // MemWords of the writing and the reading run
		end          isa.Inst
		cfg          vm.Config
		want         error
	}{
		{"halt", small, small, isa.Inst{Op: isa.HALT}, vm.Config{}, nil},
		{"mem-range", small, small, isa.Inst{Op: isa.LD, Rd: 7, Rs: 6}, vm.Config{}, vm.ErrMemRange},
		{"max-steps", small, small, isa.Inst{Op: isa.JMP, Target: 6}, vm.Config{MaxSteps: 20000}, vm.ErrMaxSteps},
		{"cancelled", small, small, isa.Inst{Op: isa.JMP, Target: 6}, vm.Config{Ctx: cancelled}, context.Canceled},
		{"larger-then-smaller", large, small, isa.Inst{Op: isa.HALT}, vm.Config{}, nil},
		{"smaller-then-larger", small, large, isa.Inst{Op: isa.HALT}, vm.Config{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MemWords = int(tc.dirty)
			for i := 0; i < 3; i++ {
				if _, err := vm.Run(dirtyProg(tc.dirty, 0x5a, tc.end), nil, nil, cfg); !errors.Is(err, tc.want) {
					t.Fatalf("writing run: err = %v, want %v", err, tc.want)
				}
				res, err := vm.Run(orProg(tc.check), nil, nil, vm.Config{MemWords: int(tc.check)})
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Output) != "\x00" {
					t.Fatalf("round %d: reading run saw words %#x an earlier run wrote", i, res.Output)
				}
			}
		})
	}
}

// TestConcurrentRunsNeverShareMemory: runs on several goroutines draw from
// the same pool; each must see only its own writes (run under -race, this
// also checks the pool hands a memory to one run at a time).
func TestConcurrentRunsNeverShareMemory(t *testing.T) {
	const words = 2048
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			marker := int64(g + 1)
			for range 20 {
				if _, err := vm.Run(dirtyProg(words, marker, isa.Inst{Op: isa.HALT}), nil, nil, vm.Config{MemWords: words}); err != nil {
					errs <- err
					return
				}
				res, err := vm.Run(orProg(words), nil, nil, vm.Config{MemWords: words})
				if err == nil && string(res.Output) != "\x00" {
					err = fmt.Errorf("goroutine %d: reading run saw words %#x another run wrote", g, res.Output)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunsNeverSeeScatteredStores: a run that writes only a few scattered
// words — the first, the middle and the last of its memory, and both sides
// of the 512-word (4 KiB) boundaries at 512 and 4096 — leaves none of them
// behind for the next run, whichever of two memory sizes either run uses.
func TestRunsNeverSeeScatteredStores(t *testing.T) {
	const small, large = 8192, 12288
	for _, w := range []int64{small, large} {
		for _, r := range []int64{small, large} {
			ins := []isa.Inst{{Op: isa.LDI, Rd: 5, Imm: 0x7e}}
			for _, a := range []int64{0, 511, 512, 4095, 4096, w / 2, w - 1} {
				ins = append(ins,
					isa.Inst{Op: isa.LDI, Rd: 4, Imm: a},
					isa.Inst{Op: isa.ST, Rs: 4, Rt: 5})
			}
			ins = append(ins, isa.Inst{Op: isa.HALT})
			for i := 0; i < 3; i++ {
				if _, err := vm.Run(prog(ins...), nil, nil, vm.Config{MemWords: int(w)}); err != nil {
					t.Fatal(err)
				}
				res, err := vm.Run(orProg(r), nil, nil, vm.Config{MemWords: int(r)})
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Output) != "\x00" {
					t.Fatalf("%d-word run after a %d-word run: saw words %#x it wrote", r, w, res.Output)
				}
			}
		}
	}
}
