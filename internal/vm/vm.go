// Package vm executes isa programs and streams branch events to observers.
//
// The interpreter is purely functional with respect to the branch schemes
// under study: it resolves every control transfer through the program's
// canonical-location table, so forward-slot copies produced by the Forward
// Semantic transform are never executed functionally (they are exact copies
// of the target path; see DESIGN.md). Timing is modelled separately by
// internal/pipeline.
package vm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"branchcost/internal/isa"
	"branchcost/internal/telemetry"
)

// Config controls resource limits of a run.
type Config struct {
	// MemWords is the data memory size in words; 0 means 1<<20. A run takes
	// its memory from a pool of memories of this size and zeroes it before
	// use, so no run sees a word another run wrote.
	MemWords int
	MaxSteps int64 // dynamic instruction limit; 0 means 1<<34

	// Ctx, when non-nil, is polled every ctxCheckSteps dynamic instructions:
	// a cancelled or expired context traps the run with the context's error
	// (located like any other trap). This is the watchdog seam that lets a
	// per-benchmark deadline kill a hung workload mid-run instead of waiting
	// out the full MaxSteps budget. RunContext sets it from its argument.
	Ctx context.Context

	// Trace, when non-nil, receives the code position of every executed
	// instruction (the fetch stream). It slows the interpreter considerably;
	// Walk rebuilds the same stream from a recorded branch trace.
	Trace func(pos int32)

	// Metrics, when non-nil, accumulates the "vm.runs", "vm.steps",
	// "vm.branches" and "vm.traps" counters — one update batch per run, so
	// the interpreter loop itself stays uninstrumented.
	Metrics *telemetry.Set
}

// DefaultConfig are the limits used when a zero Config is supplied.
var DefaultConfig = Config{MemWords: 1 << 20, MaxSteps: 1 << 34}

// ctxCheckSteps is how many dynamic instructions pass between context polls
// when Config.Ctx is set: coarse enough to keep the interpreter loop tight,
// fine enough that a deadline lands within microseconds of expiring.
const ctxCheckSteps = 1 << 14

func (c Config) withDefaults() Config {
	if c.MemWords == 0 {
		c.MemWords = DefaultConfig.MemWords
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultConfig.MaxSteps
	}
	return c
}

// BranchEvent describes one executed branch instruction.
type BranchEvent struct {
	PC     int32  // code position of the executed branch (the fetch address)
	ID     int32  // stable instruction ID (profile key)
	Op     isa.Op // branch opcode
	Taken  bool   // actual outcome (JMP/JMPI are always taken)
	Target int32  // code position control moved to when taken
	Likely bool   // the instruction's likely-taken bit
}

// BranchFunc observes executed branches. It must not retain the event.
type BranchFunc func(ev BranchEvent)

// Result summarizes a completed run.
type Result struct {
	Output   []byte
	Steps    int64 // dynamic instructions executed
	Branches int64 // dynamic counted branches (conditional + jmp + jmpi)
}

// Trap errors returned by Run.
var (
	ErrMaxSteps  = errors.New("vm: dynamic instruction limit exceeded")
	ErrDivByZero = errors.New("vm: division by zero")
	ErrMemRange  = errors.New("vm: memory access out of range")
	ErrJumpTable = errors.New("vm: jump table index out of range")
	ErrBadRA     = errors.New("vm: return address out of range")
	ErrNoHalt    = errors.New("vm: fell off end of code")
)

// trapError decorates a trap with the faulting position and step count.
type trapError struct {
	err  error
	pos  int32
	step int64
}

func (t *trapError) Error() string {
	return fmt.Sprintf("%v (at code position %d, step %d)", t.err, t.pos, t.step)
}

func (t *trapError) Unwrap() error { return t.err }

// RunCount counts Run invocations process-wide. Tests and benchmarks read
// it to assert that warm-corpus evaluations perform no VM execution.
var RunCount atomic.Int64

// RunContext is Run under a context: the interpreter polls ctx periodically
// and traps with its error once it is cancelled or past its deadline.
func RunContext(ctx context.Context, p *isa.Program, input []byte, hook BranchFunc, cfg Config) (Result, error) {
	cfg.Ctx = ctx
	return Run(p, input, hook, cfg)
}

// Run executes p on the given input bytes. hook, if non-nil, is invoked for
// every executed counted branch. The run's data memory comes zeroed from a
// pool and returns to it when the run ends, however it ends: a suite's
// hundreds of runs then reuse a few memories instead of faulting in and
// clearing a fresh 8 MiB (at the default MemWords) each time. Only the
// pages the run wrote are cleared on the way back.
func Run(p *isa.Program, input []byte, hook BranchFunc, cfg Config) (Result, error) {
	RunCount.Add(1)
	cfg = cfg.withDefaults()
	m := Machine{prog: p, cfg: cfg}
	res, err := m.run(input, hook)
	if t := cfg.Metrics; t != nil {
		t.Counter("vm.runs").Inc()
		t.Counter("vm.steps").Add(res.Steps)
		t.Counter("vm.branches").Add(res.Branches)
		if err != nil {
			t.Counter("vm.traps").Inc()
		}
	}
	return res, err
}

// Machine holds the mutable state of one execution. A zero Machine is not
// usable; construct runs through Run. The type is exported so tests can
// exercise trap paths directly.
type Machine struct {
	prog *isa.Program
	cfg  Config

	regs  [isa.NumRegs]int64
	mem   []int64
	dirty []bool // by page (see pageShift): the run may have written it
	in    []byte
	inAt  int
	out   []byte
}

func (m *Machine) run(input []byte, hook BranchFunc) (Result, error) {
	p := m.prog
	mem := getMem(m.cfg.MemWords)
	defer putMem(mem)
	m.mem, m.dirty = mem.words, mem.dirty
	for pg := range (copy(m.mem, p.Data) + pageWords - 1) >> pageShift {
		m.dirty[pg] = true
	}
	m.in = input
	m.regs[isa.SP] = int64(m.cfg.MemWords)

	code := p.Code
	loc := p.Loc // nil for identity
	resolve := func(id int32) int32 {
		if loc == nil {
			return id
		}
		return loc[id]
	}

	var steps, branches int64
	memLen := int64(len(m.mem))
	pos := resolve(p.Entry)
	maxSteps := m.cfg.MaxSteps
	ctx := m.cfg.Ctx
	nextCtx := int64(ctxCheckSteps)

	for {
		if int(pos) >= len(code) {
			return m.result(steps, branches), &trapError{ErrNoHalt, pos, steps}
		}
		in := &code[pos]
		if steps++; steps > maxSteps {
			return m.result(steps, branches), &trapError{ErrMaxSteps, pos, steps}
		}
		if ctx != nil && steps >= nextCtx {
			if err := ctx.Err(); err != nil {
				return m.result(steps, branches), &trapError{err, pos, steps}
			}
			nextCtx = steps + ctxCheckSteps
		}
		if m.cfg.Trace != nil {
			m.cfg.Trace(pos)
		}
		r := &m.regs
		switch in.Op {
		case isa.NOP:
			pos++
		case isa.HALT:
			return m.result(steps, branches), nil

		case isa.ADD:
			r[in.Rd] = r[in.Rs] + r[in.Rt]
			pos++
		case isa.SUB:
			r[in.Rd] = r[in.Rs] - r[in.Rt]
			pos++
		case isa.MUL:
			r[in.Rd] = r[in.Rs] * r[in.Rt]
			pos++
		case isa.DIV:
			if r[in.Rt] == 0 {
				return m.result(steps, branches), &trapError{ErrDivByZero, pos, steps}
			}
			r[in.Rd] = r[in.Rs] / r[in.Rt]
			pos++
		case isa.MOD:
			if r[in.Rt] == 0 {
				return m.result(steps, branches), &trapError{ErrDivByZero, pos, steps}
			}
			r[in.Rd] = r[in.Rs] % r[in.Rt]
			pos++
		case isa.AND:
			r[in.Rd] = r[in.Rs] & r[in.Rt]
			pos++
		case isa.OR:
			r[in.Rd] = r[in.Rs] | r[in.Rt]
			pos++
		case isa.XOR:
			r[in.Rd] = r[in.Rs] ^ r[in.Rt]
			pos++
		case isa.SHL:
			r[in.Rd] = r[in.Rs] << (uint64(r[in.Rt]) & 63)
			pos++
		case isa.SHR:
			r[in.Rd] = r[in.Rs] >> (uint64(r[in.Rt]) & 63)
			pos++
		case isa.SLT:
			r[in.Rd] = b2i(r[in.Rs] < r[in.Rt])
			pos++
		case isa.SLE:
			r[in.Rd] = b2i(r[in.Rs] <= r[in.Rt])
			pos++
		case isa.SEQ:
			r[in.Rd] = b2i(r[in.Rs] == r[in.Rt])
			pos++
		case isa.SNE:
			r[in.Rd] = b2i(r[in.Rs] != r[in.Rt])
			pos++

		case isa.ADDI:
			r[in.Rd] = r[in.Rs] + in.Imm
			pos++
		case isa.MULI:
			r[in.Rd] = r[in.Rs] * in.Imm
			pos++
		case isa.ANDI:
			r[in.Rd] = r[in.Rs] & in.Imm
			pos++
		case isa.ORI:
			r[in.Rd] = r[in.Rs] | in.Imm
			pos++
		case isa.SHLI:
			r[in.Rd] = r[in.Rs] << (uint64(in.Imm) & 63)
			pos++
		case isa.SHRI:
			r[in.Rd] = r[in.Rs] >> (uint64(in.Imm) & 63)
			pos++
		case isa.SLTI:
			r[in.Rd] = b2i(r[in.Rs] < in.Imm)
			pos++

		case isa.LDI:
			r[in.Rd] = in.Imm
			pos++
		case isa.MOV:
			r[in.Rd] = r[in.Rs]
			pos++

		case isa.LD:
			a := r[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return m.result(steps, branches), &trapError{ErrMemRange, pos, steps}
			}
			r[in.Rd] = m.mem[a]
			pos++
		case isa.ST:
			a := r[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return m.result(steps, branches), &trapError{ErrMemRange, pos, steps}
			}
			m.mem[a] = r[in.Rt]
			m.dirty[a>>pageShift] = true
			pos++

		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLE, isa.BGT:
			var taken bool
			a, b := r[in.Rs], r[in.Rt]
			switch in.Op {
			case isa.BEQ:
				taken = a == b
			case isa.BNE:
				taken = a != b
			case isa.BLT:
				taken = a < b
			case isa.BGE:
				taken = a >= b
			case isa.BLE:
				taken = a <= b
			case isa.BGT:
				taken = a > b
			}
			branches++
			next := resolve(in.Fall)
			if taken {
				next = resolve(in.Target)
			}
			if hook != nil {
				hook(BranchEvent{PC: pos, ID: in.ID, Op: in.Op, Taken: taken, Target: next, Likely: in.Likely})
			}
			pos = next

		case isa.JMP:
			branches++
			next := resolve(in.Target)
			if hook != nil {
				hook(BranchEvent{PC: pos, ID: in.ID, Op: isa.JMP, Taken: true, Target: next, Likely: in.Likely})
			}
			pos = next

		case isa.JMPI:
			idx := r[in.Rs]
			if idx < 0 || int(idx) >= len(in.Table) {
				return m.result(steps, branches), &trapError{ErrJumpTable, pos, steps}
			}
			branches++
			next := resolve(in.Table[idx])
			if hook != nil {
				hook(BranchEvent{PC: pos, ID: in.ID, Op: isa.JMPI, Taken: true, Target: next, Likely: in.Likely})
			}
			pos = next

		case isa.CALL:
			r[isa.RA] = int64(in.ID) + 1
			next := resolve(in.Target)
			// CALL is not a counted branch, but the profiler needs call
			// events to weight function-entry blocks; observers that only
			// care about branches filter on Op.IsBranch().
			if hook != nil {
				hook(BranchEvent{PC: pos, ID: in.ID, Op: isa.CALL, Taken: true, Target: next})
			}
			pos = next

		case isa.RET:
			ra := r[isa.RA]
			if ra < 0 || int(ra) >= m.prog.NumIDs() {
				return m.result(steps, branches), &trapError{ErrBadRA, pos, steps}
			}
			pos = resolve(int32(ra))

		case isa.IN:
			if m.inAt < len(m.in) {
				r[in.Rd] = int64(m.in[m.inAt])
				m.inAt++
			} else {
				r[in.Rd] = -1
			}
			pos++
		case isa.OUT:
			m.out = append(m.out, byte(r[in.Rs]))
			pos++

		default:
			return m.result(steps, branches), &trapError{fmt.Errorf("vm: illegal opcode %v", in.Op), pos, steps}
		}
		r[isa.RZ] = 0 // r0 stays hardwired to zero
	}
}

// memPools holds one sync.Pool of data memories (*dataMem) per size in
// words. A pooled memory is all zeros.
var memPools sync.Map

func memPool(words int) *sync.Pool {
	p, ok := memPools.Load(words)
	if !ok {
		p, _ = memPools.LoadOrStore(words, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// pageShift sets the granularity at which a run's writes are tracked:
// pages of 1<<pageShift words (4 KiB).
const (
	pageShift = 9
	pageWords = 1 << pageShift
)

// dataMem is one run's data memory and the pages of it the run may have
// written (loading the program's data, or ST).
type dataMem struct {
	words []int64
	dirty []bool
}

// getMem returns a zeroed data memory of the given size, reusing a pooled
// one when there is one.
func getMem(words int) *dataMem {
	if mem, ok := memPool(words).Get().(*dataMem); ok {
		return mem
	}
	return &dataMem{words: make([]int64, words), dirty: make([]bool, (words+pageWords-1)>>pageShift)}
}

// putMem clears the pages the run wrote and returns the memory to its pool,
// at a cost in proportion to the pages written.
func putMem(mem *dataMem) {
	for pg, d := range mem.dirty {
		if d {
			clear(mem.words[pg<<pageShift : min((pg+1)<<pageShift, len(mem.words))])
			mem.dirty[pg] = false
		}
	}
	memPool(len(mem.words)).Put(mem)
}

func (m *Machine) result(steps, branches int64) Result {
	return Result{Output: m.out, Steps: steps, Branches: branches}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
