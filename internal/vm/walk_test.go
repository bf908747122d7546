package vm_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/profile"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// callLoop reads input bytes until EOF, calling a function per byte that
// outputs the odd ones: every control transfer the walk handles (branches
// both ways, JMP, CALL, RET, HALT) runs on each input.
func callLoop() *isa.Program {
	return prog(
		isa.Inst{Op: isa.IN, Rd: 4},                     // 0
		isa.Inst{Op: isa.SLTI, Rd: 5, Rs: 4, Imm: 0},    // 1
		isa.Inst{Op: isa.BNE, Rs: 5, Rt: 0, Target: 7},  // 2: EOF -> halt
		isa.Inst{Op: isa.CALL, Target: 8},               // 3
		isa.Inst{Op: isa.JMP, Target: 0},                // 4
		isa.Inst{Op: isa.NOP},                           // 5
		isa.Inst{Op: isa.NOP},                           // 6
		isa.Inst{Op: isa.HALT},                          // 7
		isa.Inst{Op: isa.ANDI, Rd: 6, Rs: 4, Imm: 1},    // 8
		isa.Inst{Op: isa.BEQ, Rs: 6, Rt: 0, Target: 11}, // 9
		isa.Inst{Op: isa.OUT, Rs: 4},                    // 10
		isa.Inst{Op: isa.RET},                           // 11
	)
}

// liveRuns runs p over inputs and returns its counted-branch events, every
// executed position, and the total steps.
func liveRuns(t *testing.T, p *isa.Program, inputs ...string) (evs []vm.BranchEvent, pos []int32, steps int64) {
	t.Helper()
	hook := func(ev vm.BranchEvent) {
		if ev.Op.IsBranch() {
			evs = append(evs, ev)
		}
	}
	cfg := vm.Config{Trace: func(p int32) { pos = append(pos, p) }}
	for _, in := range inputs {
		res, err := vm.Run(p, []byte(in), hook, cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps += res.Steps
	}
	return evs, pos, steps
}

// walkEvents walks evs over p and returns the positions it emits.
func walkEvents(p *isa.Program, evs []vm.BranchEvent, steps int64, runs int) ([]int32, error) {
	var pos []int32
	emit := func(start, end int32) {
		for q := start; q < end; q++ {
			pos = append(pos, q)
		}
	}
	w := vm.NewWalk(p, steps, runs)
	for _, ev := range evs {
		if err := w.Event(ev, emit); err != nil {
			return pos, err
		}
	}
	return pos, w.Finish(emit)
}

// TestWalkRebuildsFetchStream: walking a recorded branch stream over its
// program yields exactly the positions the VM executed, across calls,
// returns and a HALT that restarts the next run at Entry.
func TestWalkRebuildsFetchStream(t *testing.T) {
	p := callLoop()
	evs, want, steps := liveRuns(t, p, "abc", "", "de")
	got, err := walkEvents(p, evs, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("walked %v\n     want %v", got, want)
	}
}

// TestWalkErrors: a stream that does not fit the program fails with a
// located vm.ErrWalk — never a panic, never an endless walk.
func TestWalkErrors(t *testing.T) {
	p := callLoop()
	evs, _, steps := liveRuns(t, p, "ab", "c")
	edit := func(i int, f func(*vm.BranchEvent)) []vm.BranchEvent {
		out := slices.Clone(evs)
		f(&out[i])
		return out
	}
	for _, tc := range []struct {
		name   string
		prog   *isa.Program
		evs    []vm.BranchEvent
		steps  int64
		runs   int
		events int // events walked before the failure
		msg    string
	}{
		{"wrong pc", p, edit(1, func(ev *vm.BranchEvent) { ev.PC = 4 }), steps, 2, 1, "walk arrives at the beq at pc 9"},
		{"wrong op", p, edit(0, func(ev *vm.BranchEvent) { ev.Op = isa.BEQ }), steps, 2, 0, "pc 2 is bne"},
		{"target outside the code", p, edit(0, func(ev *vm.BranchEvent) { ev.Target = 99 }), steps, 2, 0, "outside the code"},
		{"unreachable target", p, edit(0, func(ev *vm.BranchEvent) { ev.Taken = !ev.Taken }), steps, 2, 0, "cannot go to"},
		{"past the last run", p, evs, steps, 1, len(evs) - 4, "past the last of 1 runs"},
		{"last event cut", p, evs[:len(evs)-1], steps, 2, len(evs) - 1, "the stream ends"},
		{"too few steps", p, evs, steps - 1, 2, len(evs), "passes the"},
		{"too many steps", p, evs, steps + 1, 2, len(evs), "short of"},
		{"ret with no call", prog(isa.Inst{Op: isa.RET}), nil, 5, 1, 0, "no call to return to"},
		{"endless calls", prog(isa.Inst{Op: isa.CALL, Target: 0}), nil, 1000, 1, 0, "passes the 1000 recorded steps"},
		{"off the end", prog(isa.Inst{Op: isa.NOP}), nil, 5, 1, 0, "falls off the end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := walkEvents(tc.prog, tc.evs, tc.steps, tc.runs)
			at := fmt.Sprintf("after %d events", tc.events)
			if !errors.Is(err, vm.ErrWalk) || !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("got %v, want vm.ErrWalk %s: %s", err, at, tc.msg)
			}
		})
	}
}

// fetchHash folds a position stream into its length and a rolling hash.
type fetchHash struct {
	n int64
	h uint64
}

func (f *fetchHash) add(pos int32) {
	f.n++
	f.h = (f.h ^ uint64(uint32(pos))) * 1099511628211
}

func (f *fetchHash) run(start, end int32) {
	for q := start; q < end; q++ {
		f.add(q)
	}
}

// recordHashed records p's branch trace over inputs and, in the same VM
// pass, hashes every executed position.
func recordHashed(t *testing.T, p *isa.Program, inputs [][]byte, extra ...vm.BranchFunc) (*tracefile.Trace, fetchHash) {
	t.Helper()
	var live fetchHash
	tr, err := tracefile.RecordConfig(context.Background(), p, inputs, vm.Config{Trace: live.add}, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return tr, live
}

// TestWalkMatchesRun is the walk's identity gate: on every registered
// benchmark, original and Forward-Semantic-transformed binaries alike,
// the positions walked from the recorded trace equal vm.Config.Trace's in
// count and rolling hash, and the same trace walked over the previous
// benchmark's program fails (unless the two share one program, as the scan
// pair does). -short checks a subset.
func TestWalkMatchesRun(t *testing.T) {
	var prev *isa.Program
	for _, b := range workloads.Everything() {
		if testing.Short() && !slices.Contains([]string{"wc", "cmp", "tee", "vcall"}, b.Name) {
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
			tr, live := recordHashed(t, p, inputs, col.Hook())
			prof.Steps, prof.Runs = tr.Steps, tr.Runs
			res, err := fs.Transform(p, prof, 2)
			if err != nil {
				t.Fatal(err)
			}
			fsTr, fsLive := recordHashed(t, res.Prog, inputs)
			for _, c := range []struct {
				binary string
				prog   *isa.Program
				tr     *tracefile.Trace
				live   fetchHash
			}{{"original", p, tr, live}, {"fs", res.Prog, fsTr, fsLive}} {
				var walked fetchHash
				if err := c.tr.Walk(c.prog, walked.run); err != nil {
					t.Fatalf("%s: %v", c.binary, err)
				}
				if walked != c.live || walked.n != c.tr.Steps {
					t.Errorf("%s: walked %d positions (hash %x), the VM executed %d (hash %x), trace steps %d",
						c.binary, walked.n, walked.h, c.live.n, c.live.h, c.tr.Steps)
				}
			}
			if prev != nil && !reflect.DeepEqual(prev, p) {
				if err := tr.Walk(prev, func(int32, int32) {}); !errors.Is(err, vm.ErrWalk) {
					t.Errorf("trace walked over another benchmark's program: err %v, want vm.ErrWalk", err)
				}
			}
			prev = p
		})
	}
}
