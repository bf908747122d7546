package tracefile_test

import (
	"context"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// liveEvents runs the benchmark's run-0 and returns its counted branches.
func liveEvents(t *testing.T, name string) (*tracefile.Trace, []vm.BranchEvent) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var live []vm.BranchEvent
	tr, err := tracefile.Record(prog, [][]byte{b.Input(0)}, func(ev vm.BranchEvent) {
		if ev.Op.IsBranch() {
			live = append(live, ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, live
}

// TestTraceReplayBitIdentical: the packed representation must reconstruct
// every vm.BranchEvent exactly. yacc exercises indirect jumps (its parser
// tables compile to JMPI), covering the per-event target words.
func TestTraceReplayBitIdentical(t *testing.T) {
	for _, name := range []string{"wc", "yacc"} {
		tr, live := liveEvents(t, name)
		if tr.Len() != len(live) {
			t.Fatalf("%s: trace len %d != live %d", name, tr.Len(), len(live))
		}
		i := 0
		tr.Replay(func(ev vm.BranchEvent) {
			if ev != live[i] {
				t.Fatalf("%s: event %d: %+v != %+v", name, i, ev, live[i])
			}
			i++
		})
		if i != len(live) {
			t.Fatalf("%s: replayed %d events, want %d", name, i, len(live))
		}
		if tr.Sites() <= 0 || tr.Sites() > tr.Len() {
			t.Fatalf("%s: implausible site count %d", name, tr.Sites())
		}
		if tr.Runs != 1 || tr.Steps == 0 {
			t.Fatalf("%s: run accounting wrong: %d runs, %d steps", name, tr.Runs, tr.Steps)
		}
	}
}

func TestTraceCoversJMPI(t *testing.T) {
	_, live := liveEvents(t, "yacc")
	n := 0
	for _, ev := range live {
		if ev.Op.String() == "JMPI" {
			n++
		}
	}
	if n == 0 {
		t.Skip("yacc no longer exercises indirect jumps")
	}
}

// TestScoreParallelMatchesSequential: concurrent replays over the shared
// trace must produce the same statistics as sequential ones (also the -race
// exercise for the replay pool).
func TestScoreParallelMatchesSequential(t *testing.T) {
	tr, _ := liveEvents(t, "compress")
	mk := func() []*predict.Evaluator {
		return []*predict.Evaluator{
			{P: btb.NewSBTB(256, 256)},
			{P: btb.NewCBTB(256, 256, 2, 2)},
			{P: btb.NewSBTB(64, 4)},
			{P: btb.NewCBTB(64, 4, 2, 2)},
			{P: predict.AlwaysNotTaken{}},
			{P: btb.NewCBTB(16, 16, 1, 1)},
		}
	}
	seq, par := mk(), mk()
	for _, e := range seq {
		tr.Replay(e.Hook())
	}
	hooks := make([]vm.BranchFunc, len(par))
	for i, e := range par {
		hooks[i] = e.Hook()
	}
	if err := tr.ScoreParallelContext(context.Background(), hooks...); err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].S != par[i].S {
			t.Fatalf("evaluator %d: parallel stats differ:\nseq %+v\npar %+v", i, seq[i].S, par[i].S)
		}
	}
}
