package serve_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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

// TestServeUploadConcatenatedTraces: an upload of two traces one after the
// other, as `cat a.bt b.bt` makes, is 400 bad_trace naming the bytes after
// the first trailer, not the first trace scored alone.
func TestServeUploadConcatenatedTraces(t *testing.T) {
	s := testServer(t, nil)
	raw := wcUpload(t)
	w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb", bytes.NewReader(append(bytes.Clone(raw), raw...))))
	e := decodeError(t, w)
	if w.Code != http.StatusBadRequest || e.Code != "bad_trace" || !strings.Contains(e.Message, "data after the trailer") {
		t.Fatalf("two concatenated traces = %d/%s %q, want 400/bad_trace naming the data after the trailer", w.Code, e.Code, e.Message)
	}
}

// farPCUpload frames one jump at pc, executed twice to target 8, as a BCT2
// upload.
func farPCUpload(t *testing.T, pc int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewBCT2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tw.Runs = 1
	for i := 0; i < 2; i++ {
		tw.Record(vm.BranchEvent{PC: pc, ID: pc, Op: isa.JMP, Taken: true, Target: 8})
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeUploadFarPC: an upload whose only branch sits at a PC far past
// any program scores under the daemon's default upload schemes in a few
// MiB: a branch-target buffer indexes such a PC in a map, not in a slice
// as long as the PC (at PC 2^24 that slice cost 64 MiB per buffer, and at
// 2^31−1 it would ask for 8 GiB per buffer, an allocation failure no
// recover contains). The 2^24 case runs first, so a regression fails
// there.
func TestServeUploadFarPC(t *testing.T) {
	// The default set, named because this package also registers
	// replay-panic, which the default would include.
	const upload = "always-not-taken,btb2l,cbtb,gshare,local,perceptron,sbtb,tage"
	s := testServer(t, nil)
	for _, pc := range []int32{1 << 24, math.MaxInt32} {
		raw := farPCUpload(t, pc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := do(s, httptest.NewRequest("POST", "/eval?schemes="+upload, bytes.NewReader(raw)))
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK {
			t.Fatalf("pc %d: upload = %d, body %s", pc, w.Code, w.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("pc %d: scoring the upload allocated %.1f MiB", pc, float64(alloc)/(1<<20))
		}
		schemes := 0
		for _, m := range ndjsonLines(t, w.Body) {
			if m["kind"] != "scheme" {
				continue
			}
			schemes++
			// The first jump misses every buffer and the second hits; a
			// buffer scheme predicts the second to its cached target.
			want := map[string]float64{"branches": 2, "correct": 1, "hits": 1, "misses": 1}
			if m["scheme"] == "always-not-taken" {
				want = map[string]float64{"branches": 2, "correct": 0, "hits": 2, "misses": 0}
			}
			for k, v := range want {
				if m[k] != v {
					t.Errorf("pc %d: %v %s = %v, want %v", pc, m["scheme"], k, m[k], v)
				}
			}
		}
		if schemes != 8 {
			t.Fatalf("pc %d: %d scheme lines, want 8", pc, schemes)
		}
	}
}
