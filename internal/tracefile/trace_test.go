package tracefile_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/isa"
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

// TestTraceRecordFarPCs: a PC the recording index's slice does not hold —
// negative, or far beyond any program — still records and replays exactly,
// and costs no allocation in proportion to the PC.
func TestTraceRecordFarPCs(t *testing.T) {
	evs := []vm.BranchEvent{
		{PC: math.MaxInt32, ID: 1, Op: isa.JMP, Taken: true, Target: 3},
		{PC: -7, ID: 2, Op: isa.BEQ, Target: 4},
		{PC: 5, ID: 3, Op: isa.BNE, Taken: true, Target: 9},
		{PC: 1 << 30, ID: 4, Op: isa.JMPI, Taken: true, Target: 12},
		{PC: math.MaxInt32, ID: 1, Op: isa.JMP, Taken: true, Target: 3},
		{PC: -7, ID: 2, Op: isa.BEQ, Target: 4},
		{PC: 1 << 30, ID: 4, Op: isa.JMPI, Taken: true, Target: 13},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := &tracefile.Trace{}
	for _, ev := range evs {
		tr.Record(ev)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("recording %d events allocated %d bytes", len(evs), grew)
	}
	if tr.Sites() != 4 {
		t.Fatalf("%d sites, want 4", tr.Sites())
	}
	i := 0
	tr.Replay(func(ev vm.BranchEvent) {
		if i >= len(evs) || ev != evs[i] {
			t.Fatalf("replayed event %d = %+v", i, ev)
		}
		i++
	})
	if i != len(evs) {
		t.Fatalf("replayed %d events, recorded %d", i, len(evs))
	}
}

// TestReadTraceAllocation: loading a trace of many blocks allocates under 3×
// the packed stream it keeps (4 bytes per word). Each block decodes into a
// reused buffer, is kept at its length and the blocks are joined once;
// appending every block to one growing stream allocated about 6×.
func TestReadTraceAllocation(t *testing.T) {
	tr := &tracefile.Trace{}
	words := 0
	for i := range 1 << 20 {
		pc := int32(10 + i%8)
		ev := vm.BranchEvent{PC: pc, ID: pc, Op: isa.BEQ, Taken: i%3 != 0, Target: pc + 1}
		switch {
		case pc == 17: // an indirect jump: a second word for its target
			ev = vm.BranchEvent{PC: pc, ID: pc, Op: isa.JMPI, Taken: true, Target: int32(100 + i%5)}
			words++
		case ev.Taken:
			ev.Target = pc + 40
		}
		tr.Record(ev)
		words++
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := tracefile.ReadTrace(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("loaded %d events, recorded %d", back.Len(), tr.Len())
	}
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*4*words); alloc > limit {
		t.Fatalf("loading %d words allocated %.1f MiB, over %.1f MiB (3× the packed stream)",
			words, float64(alloc)/(1<<20), float64(limit)/(1<<20))
	}
}
