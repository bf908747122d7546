package vm

import (
	"errors"
	"fmt"
	"slices"

	"branchcost/internal/isa"
)

// ErrWalk reports a branch stream that does not fit the program walked.
var ErrWalk = errors.New("vm: trace does not fit the program")

// RunFunc receives one straight-line run of executed code positions,
// [start, end), in execution order.
type RunFunc func(start, end int32)

// Walk rebuilds the fetch stream of a recorded run set — every position Run
// executed, in order — from the program and its counted-branch events. The
// program fixes every transfer a branch trace leaves out: CALL targets are
// static, RET returns to the ID after its CALL, and HALT starts the next
// run at Entry. Walk resolves through Program.Loc as Run does, keeps a
// shadow return stack, and jumps between control positions through a
// table: one step per control transfer. Feed it the events in order, then
// call Finish. An event the walk does not arrive at, or a walk past or
// short of the recorded steps and runs, fails with a located, sticky
// ErrWalk: never a panic or an endless walk.
type Walk struct {
	prog  *isa.Program
	next  []int32 // next[p]: the first control position at or after p; len(Code) if none
	pos   int32   // the position the walk executes next
	stack []int32 // shadow return stack of return IDs

	steps, maxSteps int64
	run, maxRuns    int
	events          int64
	err             error
}

// NewWalk returns a walk over p of a stream recorded across runs runs that
// executed steps instructions in all (tracefile.Trace's Runs and Steps).
func NewWalk(p *isa.Program, steps int64, runs int) *Walk {
	next := make([]int32, len(p.Code)+1)
	next[len(p.Code)] = int32(len(p.Code))
	for i := len(p.Code) - 1; i >= 0; i-- {
		next[i] = next[i+1]
		if p.Code[i].Op.IsControl() {
			next[i] = int32(i)
		}
	}
	return &Walk{prog: p, next: next, pos: p.Canonical(p.Entry), maxSteps: steps, maxRuns: runs}
}

func (w *Walk) fail(format string, args ...any) error {
	w.err = fmt.Errorf("%w: after %d events (run %d, step %d): %s",
		ErrWalk, w.events, w.run, w.steps, fmt.Sprintf(format, args...))
	return w.err
}

// Event walks to ev, the stream's next counted branch, emitting every
// position executed up to and including it, checks that ev is that branch
// and goes where the branch can go, and continues from ev's target.
func (w *Walk) Event(ev BranchEvent, emit RunFunc) error {
	c, err := w.advance(emit)
	if err != nil {
		return err
	}
	if c < 0 {
		return w.fail("an event at pc %d lies past the last of %d runs", ev.PC, w.maxRuns)
	}
	in := &w.prog.Code[c]
	switch {
	case ev.PC != c:
		return w.fail("an event at pc %d, but the walk arrives at the %v at pc %d", ev.PC, in.Op, c)
	case ev.Op != in.Op || ev.ID != in.ID:
		return w.fail("pc %d is %v (id %d), but the event has %v (id %d)", c, in.Op, in.ID, ev.Op, ev.ID)
	case ev.Target < 0 || int(ev.Target) >= len(w.prog.Code):
		return w.fail("pc %d: target %d lies outside the code (%d positions)", c, ev.Target, len(w.prog.Code))
	case !w.reaches(in, ev):
		return w.fail("pc %d: the %v cannot go to %d (taken %v)", c, in.Op, ev.Target, ev.Taken)
	}
	w.pos = ev.Target
	w.events++
	return nil
}

// Finish walks from the last event through the final HALT, emitting the
// tail, and checks that the walk took exactly the recorded steps.
func (w *Walk) Finish(emit RunFunc) error {
	c, err := w.advance(emit)
	switch {
	case err != nil:
		return err
	case c >= 0:
		return w.fail("the stream ends, but the run goes on to the %v at pc %d", w.prog.Code[c].Op, c)
	case w.steps != w.maxSteps:
		return w.fail("the walk ends after %d steps, short of the %d recorded", w.steps, w.maxSteps)
	}
	return nil
}

// advance walks through straight-line code, CALL, RET and HALT to the next
// counted branch, emitting each run (the branch included), and returns the
// branch's position, or -1 once the last recorded run has halted.
func (w *Walk) advance(emit RunFunc) (int32, error) {
	for w.err == nil && w.run < w.maxRuns {
		c := w.next[w.pos]
		if int(c) == len(w.prog.Code) {
			return 0, w.fail("the walk falls off the end of the code from position %d", w.pos)
		}
		in := &w.prog.Code[c]
		if w.steps += int64(c-w.pos) + 1; w.steps > w.maxSteps {
			return 0, w.fail("the walk passes the %d recorded steps", w.maxSteps)
		}
		emit(w.pos, c+1)
		switch in.Op {
		case isa.CALL:
			w.stack = append(w.stack, in.ID+1)
			w.pos = w.prog.Canonical(in.Target)
		case isa.RET:
			n := len(w.stack) - 1
			if n < 0 || int(w.stack[n]) >= w.prog.NumIDs() {
				return 0, w.fail("ret at position %d has no call to return to", c)
			}
			w.pos, w.stack = w.prog.Canonical(w.stack[n]), w.stack[:n]
		case isa.HALT:
			w.run++
			w.pos, w.stack = w.prog.Canonical(w.prog.Entry), w.stack[:0]
		default:
			return c, nil
		}
	}
	return -1, w.err
}

// reaches reports whether branch in can transfer control where ev says.
func (w *Walk) reaches(in *isa.Inst, ev BranchEvent) bool {
	to := func(id int32) bool { return w.prog.Canonical(id) == ev.Target }
	switch {
	case in.Op == isa.JMPI:
		return ev.Taken && slices.ContainsFunc(in.Table, to)
	case ev.Taken:
		return to(in.Target)
	}
	return in.Op != isa.JMP && to(in.Fall)
}
