package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// tempTrace records the given benchmark's run-0 branch stream, writes it
// to a BCT2 file and returns the path, the live-measured branch events, and
// how many CALL events the run emitted.
func tempTrace(t *testing.T, name string) (path string, live []vm.BranchEvent, calls int) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(prog, [][]byte{b.Input(0)}, func(ev vm.BranchEvent) {
		if ev.Op.IsBranch() {
			live = append(live, ev)
		} else {
			calls++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name+".bt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	return path, live, calls
}

// readEvents loads a BCT2 file and replays its events.
func readEvents(t *testing.T, path string) []vm.BranchEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tracefile.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	var evs []vm.BranchEvent
	tr.Replay(func(ev vm.BranchEvent) { evs = append(evs, ev) })
	return evs
}

// TestRoundTrip: a file recorded from a live run decodes to exactly the
// live branch events.
func TestRoundTrip(t *testing.T) {
	path, live, _ := tempTrace(t, "wc")
	got := readEvents(t, path)
	if len(got) != len(live) {
		t.Fatalf("count %d != %d", len(got), len(live))
	}
	for i, want := range live {
		if got[i] != want {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want)
		}
	}
}

// TestReplayReproducesAccuracy: evaluating a predictor from the trace file
// must give bit-identical statistics to live evaluation.
func TestReplayReproducesAccuracy(t *testing.T) {
	path, live, _ := tempTrace(t, "grep")

	liveEval := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2)}
	for _, ev := range live {
		liveEval.Observe(ev)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tracefile.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	replayEval := &predict.Evaluator{P: btb.NewCBTB(256, 256, 2, 2)}
	tr.Replay(replayEval.Hook())
	if liveEval.S != replayEval.S {
		t.Fatalf("replay stats differ:\nlive   %+v\nreplay %+v", liveEval.S, replayEval.S)
	}
}

// TestBadMagic: ReadTrace refuses every stream that is not BCT2 with
// ErrBadMagic — garbage, and files in the retired fixed-width BCT1
// encoding, which must be re-recorded.
func TestBadMagic(t *testing.T) {
	// One BCT1 event: magic, uint64 event count, then 16 bytes per event
	// (pc, id, target as int32, op, flags, 2 bytes of padding).
	bct1 := append([]byte("BCT1"), binary.LittleEndian.AppendUint64(nil, 1)...)
	bct1 = binary.LittleEndian.AppendUint32(bct1, 3) // pc
	bct1 = binary.LittleEndian.AppendUint32(bct1, 3) // id
	bct1 = binary.LittleEndian.AppendUint32(bct1, 9) // target
	bct1 = append(bct1, byte(isa.BEQ), 1, 0, 0)      // op, taken, pad
	for name, data := range map[string][]byte{"garbage": []byte("NOPE00000000"), "bct1": bct1} {
		if _, err := tracefile.ReadTrace(bytes.NewReader(data)); !errors.Is(err, tracefile.ErrBadMagic) {
			t.Errorf("%s: ReadTrace = %v, want ErrBadMagic", name, err)
		}
	}
}

// TestCallsNotRecorded: CALL events never reach a trace, whether it is
// recorded in memory (Trace.Hook) or written to a file and read back.
func TestCallsNotRecorded(t *testing.T) {
	path, live, calls := tempTrace(t, "tar")
	if calls == 0 {
		t.Fatal("tar emitted no CALL events; the test proves nothing")
	}
	b, err := workloads.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	mem := &tracefile.Trace{}
	if _, err := vm.Run(prog, b.Input(0), mem.Hook(), vm.Config{}); err != nil {
		t.Fatal(err)
	}
	var replayed []vm.BranchEvent
	mem.Replay(func(ev vm.BranchEvent) { replayed = append(replayed, ev) })
	for name, evs := range map[string][]vm.BranchEvent{"Trace.Hook": replayed, "file": readEvents(t, path)} {
		if len(evs) != len(live) {
			t.Fatalf("%s: %d events, want %d branches", name, len(evs), len(live))
		}
		for i, ev := range evs {
			if !ev.Op.IsBranch() {
				t.Fatalf("%s: event %d is a non-branch %v", name, i, ev.Op)
			}
		}
	}
}

// TestCorruptOpcode: an event whose opcode is not a branch never reaches a
// file: BCT2Writer refuses it with a sticky error that Close returns, and
// writes nothing past the header.
func TestCorruptOpcode(t *testing.T) {
	var buf bytes.Buffer
	tw, err := tracefile.NewBCT2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tw.Record(vm.BranchEvent{PC: 3, ID: 3, Op: isa.Op(200), Taken: true, Target: 9})
	tw.Record(vm.BranchEvent{PC: 4, ID: 4, Op: isa.BEQ, Taken: true, Target: 9})
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "non-branch op 200") {
		t.Fatalf("Close = %v, want a non-branch op error", err)
	}
	if buf.Len() != len("BCT2\x01") {
		t.Fatalf("wrote %d bytes, want the 5-byte header alone", buf.Len())
	}
}
