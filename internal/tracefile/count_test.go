package tracefile

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// oneTarget is a test-only stateless predictor: it predicts every indirect
// jump taken to one fixed target and every other branch not taken.
type oneTarget struct{ target int32 }

func (oneTarget) Name() string          { return "one-target" }
func (oneTarget) Update(vm.BranchEvent) {}
func (oneTarget) Reset()                {}
func (oneTarget) Stateless()            {}
func (o oneTarget) Predict(ev vm.BranchEvent) predict.Prediction {
	if ev.Op == isa.JMPI {
		return predict.Prediction{Taken: true, Target: o.target, Hit: true}
	}
	return predict.Prediction{Hit: true}
}

// TestCountsKeepJumpTargets: on a generated trace whose indirect-jump sites
// each reach several targets, a stateless predictor that names one of them
// scores the same from the histogram as by replay. A histogram that merged
// a site's targets would move Correct.
func TestCountsKeepJumpTargets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := &Trace{}
	jumps := map[int32][]int32{10: {100, 200, 300}, 20: {100, 400}}
	for range 20_000 {
		switch pc := int32(10 * (1 + r.Intn(3))); pc {
		case 30:
			taken := r.Intn(3) == 0
			target := pc + 1
			if taken {
				target = 5
			}
			tr.Record(vm.BranchEvent{PC: pc, ID: pc, Op: isa.BNE, Taken: taken, Target: target})
		default:
			ts := jumps[pc]
			target := ts[r.Intn(len(ts))*r.Intn(len(ts))%len(ts)] // skewed toward the first
			tr.Record(vm.BranchEvent{PC: pc, ID: pc, Op: isa.JMPI, Taken: true, Target: target})
		}
	}
	evs, _, err := tr.histogram(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perSite := map[int32]int{}
	for _, ev := range evs {
		perSite[ev.PC]++
	}
	if perSite[10] != 3 || perSite[20] != 2 || perSite[30] != 2 {
		t.Fatalf("histogram entries per site %v, want 3 targets at 10, 2 at 20 and 2 directions at 30", perSite)
	}
	for _, target := range []int32{100, 200, 300, 400, 7} {
		counted := &predict.Evaluator{P: oneTarget{target}}
		replayed := &predict.Evaluator{P: oneTarget{target}}
		if !counted.Countable() {
			t.Fatal("a Stateless predictor with no observer is not Countable")
		}
		if err := Score(context.Background(), tr, []*predict.Evaluator{counted}); err != nil {
			t.Fatal(err)
		}
		tr.Replay(replayed.Observe)
		if counted.S != replayed.S {
			t.Errorf("target %d: from counts %+v, by replay %+v", target, counted.S, replayed.S)
		}
	}
}

// jumpTrace returns a trace of n indirect jumps at one site, the i-th to
// the i%targets-th of its targets.
func jumpTrace(n, targets int) *Trace {
	tr := &Trace{}
	for i := range n {
		tr.Record(vm.BranchEvent{PC: 10, ID: 10, Op: isa.JMPI, Taken: true, Target: int32(100 + i%targets)})
	}
	return tr
}

// TestCountsManyJumpTargets: a trace whose one indirect-jump site reaches
// tens of thousands of targets, or a new target every event, scores the
// same as by replay — from counts up to maxJumpTargets distinct targets,
// by replay past them — and in time linear in the trace, well inside a
// deadline that scanning the targets seen so far on every event would
// overrun.
func TestCountsManyJumpTargets(t *testing.T) {
	for _, c := range []struct {
		n, targets int
		counted    bool
	}{
		{n: 200_000, targets: 50_000, counted: true},
		{n: 1_000_000, targets: 1_000_000, counted: false},
	} {
		tr := jumpTrace(c.n, c.targets)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		evs, _, err := tr.histogram(ctx)
		switch {
		case c.counted && (err != nil || len(evs) != c.targets):
			t.Errorf("%d targets: histogram has %d entries, error %v; want one per target", c.targets, len(evs), err)
		case !c.counted && !errors.Is(err, errManyJumpTargets):
			t.Errorf("%d targets: histogram error %v, want errManyJumpTargets", c.targets, err)
		}
		counted := &predict.Evaluator{P: oneTarget{150}}
		replayed := &predict.Evaluator{P: oneTarget{150}}
		if err := Score(ctx, tr, []*predict.Evaluator{counted}); err != nil {
			t.Fatalf("%d targets: %v", c.targets, err)
		}
		cancel()
		tr.Replay(replayed.Observe)
		if counted.S != replayed.S {
			t.Errorf("%d targets: scored %+v, by replay %+v", c.targets, counted.S, replayed.S)
		}
	}
}

// cancelAfter is a context whose Err reports Canceled from its n-th call on.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCountsStopOnCancel: Score checks its context while it builds the
// histogram, not only before, and a cancelled count scores nothing.
func TestCountsStopOnCancel(t *testing.T) {
	tr := jumpTrace(4*ctxCheckEvery, 3)
	e := &predict.Evaluator{P: oneTarget{100}}
	err := Score(&cancelAfter{Context: context.Background(), n: 2}, tr, []*predict.Evaluator{e})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Score = %v, want context.Canceled", err)
	}
	if e.S != (predict.Stats{}) {
		t.Errorf("a cancelled count scored %+v", e.S)
	}
}

// TestScoreStopsReplayOnCancel: Score checks its context between the blocks
// of a replay it has started, every ctxCheckEvery events, so a replayed
// sink has seen at most (n−1)·ctxCheckEvery events when the n-th check
// finds the context cancelled; and a cancelled context returns its error
// even when there is nothing to replay.
func TestScoreStopsReplayOnCancel(t *testing.T) {
	tr := syntheticTrace(4 * ctxCheckEvery)
	for n := 1; n <= 3; n++ {
		sink := &countSink{}
		err := Score(&cancelAfter{Context: context.Background(), n: n}, tr, []*countSink{sink})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("check %d cancels: Score = %v, want context.Canceled", n, err)
		}
		if limit := (n - 1) * ctxCheckEvery; sink.n > limit || (n > 1 && sink.n == 0) {
			t.Errorf("check %d cancels: the sink saw %d events, want 1 to %d", n, sink.n, limit)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Score(ctx, &Trace{}, []*countSink{{}}); !errors.Is(err, context.Canceled) {
		t.Errorf("empty trace under a cancelled context: Score = %v, want context.Canceled", err)
	}
}
