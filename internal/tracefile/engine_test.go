package tracefile

import (
	"context"
	"runtime"
	"testing"

	"branchcost/internal/vm"
)

// gateSink blocks its first block until the gate closes.
type gateSink chan struct{}

func (g gateSink) ObserveBlock([]vm.BranchEvent) { <-g }

// panicSink fails the way a predictor corrupted by a hostile trace does,
// opening the gate on its way out.
type panicSink chan struct{}

func (p panicSink) ObserveBlock([]vm.BranchEvent) {
	defer close(p)
	panic("sink state corrupted")
}

// TestScoreForwardsWorkerPanic: a sink panicking on a replay worker must
// re-raise on the caller's goroutine, where a recover can fence it; left on
// the worker it would kill the process. The caller claims the first sink
// and holds it until the second, left to the worker, has panicked.
func TestScoreForwardsWorkerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	gate := make(chan struct{})
	defer func() {
		if r := recover(); r != "sink state corrupted" {
			t.Fatalf("recovered %v, want the sink's panic", r)
		}
	}()
	_ = Score(context.Background(), syntheticTrace(10_000), []BlockSink{gateSink(gate), panicSink(gate)})
	t.Fatal("Score returned after a sink panicked")
}
