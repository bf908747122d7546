package serve_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// replayPanic is a context-free scheme that panics on its first prediction,
// standing in for a predictor whose state a hostile trace corrupted.
type replayPanic struct{}

func (replayPanic) Name() string                              { return "replay-panic" }
func (replayPanic) Predict(vm.BranchEvent) predict.Prediction { panic("replay-panic: corrupted state") }
func (replayPanic) Update(vm.BranchEvent)                     {}
func (replayPanic) Reset()                                    {}

func init() {
	predict.Register(predict.Scheme{
		Name:        "replay-panic",
		Description: "test scheme that panics during replay",
		New:         func(predict.SchemeContext) predict.Predictor { return replayPanic{} },
	})
}

// wcUpload returns wc's run-0 trace in BCT2 encoding.
func wcUpload(t *testing.T) []byte {
	t.Helper()
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(prog, [][]byte{b.Input(0)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeUploadReplayPanic: a scheme that panics on a replay worker —
// not on the handler's goroutine, where the upload's recover fence sits —
// comes back as a structured 500 "panic", and the daemon serves the next
// request.
func TestServeUploadReplayPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two schemes, two replay workers
	s := testServer(t, nil)
	raw := wcUpload(t)
	w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb,replay-panic", bytes.NewReader(raw)))
	if e := decodeError(t, w); w.Code != http.StatusInternalServerError || e.Code != "panic" {
		t.Fatalf("panicking upload = %d/%s, want 500/panic (body %s)", w.Code, e.Code, w.Body)
	}
	if w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb,cbtb", bytes.NewReader(raw))); w.Code != http.StatusOK {
		t.Fatalf("upload after a replay panic = %d, body %s", w.Code, w.Body)
	}
}

// conflictUpload frames payload as a complete, checksum-valid BCT2 stream.
func conflictUpload(payload []byte) []byte {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	s := append([]byte("BCT2\x01"), binary.AppendUvarint(nil, uint64(len(payload)))...)
	s = binary.LittleEndian.AppendUint32(append(s, payload...), crc(payload))
	trailer := []byte{0x00, 0x01} // steps 0, runs 1
	return binary.LittleEndian.AppendUint32(append(append(s, 0x00), trailer...), crc(trailer))
}

// TestServeUploadConflictingTrace: checksum-valid uploads that give one pc
// two static identities, or a direct branch a changing target, are 400
// bad_trace — the first used to crash the daemon with an index out of range
// in replay — and the daemon keeps serving.
func TestServeUploadConflictingTrace(t *testing.T) {
	s := testServer(t, nil)
	for name, payload := range map[string][]byte{
		"pc-listed-twice": {
			0x02, 0x02, // 2 events, 2 new sites
			0x14, 0x00, byte(isa.JMPI), // pc 10
			0x00, 0x00, byte(isa.BEQ), // pc 10 again
			0x03, 0x14, 0x07, 0x14, // one taken event on each, target 20
		},
		"target-changes": {
			0x04, 0x01, // 4 events, 1 new site
			0x14, 0x00, byte(isa.BEQ), // pc 10
			0x03, 0x14, 0x02, 0x03, 0x28, 0x02, // taken to 20, 20, 30, 30
		},
	} {
		w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb,cbtb", bytes.NewReader(conflictUpload(payload))))
		if e := decodeError(t, w); w.Code != http.StatusBadRequest || e.Code != "bad_trace" {
			t.Fatalf("%s: upload = %d/%s, want 400/bad_trace (body %s)", name, w.Code, e.Code, w.Body)
		}
	}
	if w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb", bytes.NewReader(wcUpload(t)))); w.Code != http.StatusOK {
		t.Fatalf("upload after rejected traces = %d, body %s", w.Code, w.Body)
	}
}
