package tracefile_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// bct2Stream frames payload as the one block of a complete BCT2 stream —
// block, end marker and trailer all checksum-valid — so only the decoder's
// structural checks stand between it and a clean decode.
func bct2Stream(payload []byte) []byte {
	trailer := []byte{0x00, 0x01} // steps 0, runs 1
	s := append(seedBlock(payload), 0x00)
	s = append(s, trailer...)
	return binary.LittleEndian.AppendUint32(s, crc32.Checksum(trailer, crc32.MakeTable(crc32.Castagnoli)))
}

// dupPCStream lists pc 10 twice in its dictionary, as an indirect jump and
// as a BEQ, with one taken event on each entry. Merged by pc, the BEQ event
// would be replayed as a JMPI reading a target word that is not there.
func dupPCStream() []byte {
	return bct2Stream([]byte{
		0x02, 0x02, // 2 events, 2 new sites
		0x14, 0x00, byte(isa.JMPI), // pc +10, id = pc
		0x00, 0x00, byte(isa.BEQ), // pc +0: pc 10 again
		0x03, 0x14, // site 0 taken, target pc+10
		0x07, 0x14, // site 1 taken, target pc+10
	})
}

// retargetStream holds four taken BEQ events at pc 10 whose taken target
// changes from 20 to 30 after two events: streamed, each event would score
// its own target; materialized, all four would replay the last one.
func retargetStream() []byte {
	return bct2Stream([]byte{
		0x04, 0x01, // 4 events, 1 new site
		0x14, 0x00, byte(isa.BEQ), // pc 10
		0x03, 0x14, // taken, target 20
		0x02,       // taken, learned target
		0x03, 0x28, // taken, target 30
		0x02, // taken, learned target
	})
}

// TestBCT2RejectsConflictingStreams: a dictionary giving one pc two static
// identities, and a direct branch whose target changes, are refused with a
// located error by the block decoder, by the materializing loader and by
// streamed scoring alike — so no path can score such a stream differently
// from another.
func TestBCT2RejectsConflictingStreams(t *testing.T) {
	for name, tc := range map[string]struct {
		enc  []byte
		want string
	}{
		"pc-listed-twice": {dupPCStream(), "repeats pc 10"},
		"target-changes":  {retargetStream(), "changes the taken target of pc 10 from 20 to 30"},
	} {
		t.Run(name, func(t *testing.T) {
			check := func(path string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s: conflicting stream accepted", path)
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "offset") {
					t.Fatalf("%s: error %q, want a located %q", path, err, tc.want)
				}
			}
			check("NextBlock", decodeBCT2(tc.enc))
			_, err := tracefile.ReadTrace(bytes.NewReader(tc.enc))
			check("ReadTrace", err)
			d, err := tracefile.NewBCT2Reader(bytes.NewReader(tc.enc))
			if err != nil {
				t.Fatal(err)
			}
			e := &predict.Evaluator{P: btb.NewSBTB(256, 256)}
			check("ScoreStream", tracefile.ScoreStream(context.Background(), d, e.Hook(), func(vm.BranchEvent) {}))
		})
	}
}

// TestBCT2WriterRejectsConflicts: the writer refuses the events those
// streams were made of, with an error that sticks through later valid
// events to Close.
func TestBCT2WriterRejectsConflicts(t *testing.T) {
	beq := vm.BranchEvent{PC: 10, ID: 10, Op: isa.BEQ, Taken: true, Target: 20}
	jmpi := vm.BranchEvent{PC: 10, ID: 10, Op: isa.JMPI, Taken: true, Target: 20}
	retarget := beq
	retarget.Target = 30
	likely := beq
	likely.Likely = true
	for name, tc := range map[string]struct {
		evs  []vm.BranchEvent
		want string
	}{
		"op-changes":     {[]vm.BranchEvent{jmpi, beq}, "but an event has beq"},
		"likely-changes": {[]vm.BranchEvent{beq, likely}, "likely true"},
		"target-changes": {[]vm.BranchEvent{beq, beq, retarget, retarget}, "taken target changes from 20 to 30"},
	} {
		t.Run(name, func(t *testing.T) {
			w, err := tracefile.NewBCT2Writer(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range tc.evs {
				w.Record(ev)
			}
			w.Record(vm.BranchEvent{PC: 40, ID: 40, Op: isa.JMP, Taken: true, Target: 2})
			if err := w.Close(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Close = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestTraceRecordRejectsConflicts: an event repeating a pc must agree with
// the trace's earlier events there — the same static identity, and for a
// direct branch the same target per direction — or Trace.Record panics,
// since the stream could not replay bit-identically.
func TestTraceRecordRejectsConflicts(t *testing.T) {
	beq := vm.BranchEvent{PC: 10, ID: 10, Op: isa.BEQ, Taken: true, Target: 20}
	other := beq
	other.ID = 11
	retarget := beq
	retarget.Target = 30
	for name, tc := range map[string]struct {
		evs  []vm.BranchEvent
		want string
	}{
		"id-changes":     {[]vm.BranchEvent{beq, other}, "pc 10 is beq (id 10"},
		"target-changes": {[]vm.BranchEvent{beq, beq, retarget}, "taken target changes from 20 to 30"},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), tc.want) {
					t.Fatalf("Trace.Record panic = %v, want one containing %q", p, tc.want)
				}
			}()
			tr := &tracefile.Trace{}
			for _, ev := range tc.evs {
				tr.Record(ev)
			}
		})
	}
}
