package tracefile_test

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// stressTraceBytes records the full multi-run btb-stress trace — the
// largest event stream in the registry, spanning well over a dozen BCT2
// blocks — and returns both the trace and its BCT2 encoding.
func stressTraceBytes(t *testing.T) (*tracefile.Trace, []byte) {
	t.Helper()
	b, err := workloads.ByName("btb-stress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(prog, b.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestBCT2StressRoundTrip: the btb-stress trace (1291 sites, ~650k events,
// multiple runs) round-trips through BCT2 event for event. The earlier
// round-trip tests cover the paper's benchmarks; this one adds the
// many-sites many-blocks regime the modern classes introduce.
func TestBCT2StressRoundTrip(t *testing.T) {
	tr, enc := stressTraceBytes(t)
	if tr.Len() < 8*(1<<15) {
		t.Fatalf("trace has %d events — too small to span many blocks", tr.Len())
	}
	back, err := tracefile.ReadTrace(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.Steps != tr.Steps || back.Runs != tr.Runs {
		t.Fatalf("round trip: len %d/%d steps %d/%d runs %d/%d",
			back.Len(), tr.Len(), back.Steps, tr.Steps, back.Runs, tr.Runs)
	}
	var want []vm.BranchEvent
	tr.Replay(func(ev vm.BranchEvent) { want = append(want, ev) })
	i := 0
	back.Replay(func(ev vm.BranchEvent) {
		if ev != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, ev, want[i])
		}
		i++
	})
}

var blockErrRE = regexp.MustCompile(`block (\d+) at offset (\d+)`)

// TestBCT2StressCorruptionLocated: flip one byte at ten positions spread
// across the many-block stream; every corruption must be rejected with an
// error naming a block index, and the named index must be non-decreasing in
// the corruption position and actually reach deep into the file — the
// locator works at block 15, not only block 0.
func TestBCT2StressCorruptionLocated(t *testing.T) {
	_, enc := stressTraceBytes(t)
	prevBlock := -1
	maxBlock := 0
	for i := 1; i <= 10; i++ {
		pos := len(enc) * i / 11
		bad := bytes.Clone(enc)
		bad[pos] ^= 0xff
		_, err := tracefile.ReadTrace(bytes.NewReader(bad))
		if err == nil {
			// A flipped byte inside a varint payload may decode to garbage
			// events but must still fail the block checksum.
			t.Errorf("corruption at byte %d decoded cleanly", pos)
			continue
		}
		m := blockErrRE.FindStringSubmatch(err.Error())
		if m == nil {
			t.Errorf("corruption at byte %d: error does not locate a block: %v", pos, err)
			continue
		}
		block, _ := strconv.Atoi(m[1])
		if block < prevBlock {
			t.Errorf("corruption at byte %d located block %d, before previous %d", pos, block, prevBlock)
		}
		prevBlock = block
		if block > maxBlock {
			maxBlock = block
		}
	}
	if maxBlock < 8 {
		t.Errorf("deepest located block is %d — corruption location not exercised across blocks", maxBlock)
	}
}
