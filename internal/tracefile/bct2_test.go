package tracefile_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"branchcost/internal/btb"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// TestBCT2RoundTripEveryBenchmark: for every benchmark of the suite, the
// BCT2 encoding must reproduce the recorded event stream and run metadata
// bit for bit — so any scheme scores identically off the file — and must be
// at least 3x smaller than a fixed-width encoding of 16 bytes per event
// behind a 12-byte header (the acceptance floor; the varint encoding
// typically does far better). yacc exercises JMPI (per-event dynamic
// targets); the others cover the two-target conditional-branch fast path.
func TestBCT2RoundTripEveryBenchmark(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			tr, live := liveEvents(t, b.Name)
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			if fixed := 12 + 16*len(live); fixed < 3*len(enc) {
				t.Errorf("BCT2 not 3x smaller: fixed width %d bytes, BCT2 %d bytes (%.2fx)",
					fixed, len(enc), float64(fixed)/float64(len(enc)))
			}
			back, err := tracefile.ReadTrace(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != len(live) {
				t.Fatalf("round-trip len %d != %d", back.Len(), len(live))
			}
			i := 0
			back.Replay(func(ev vm.BranchEvent) {
				if ev != live[i] {
					t.Fatalf("event %d: %+v != %+v", i, ev, live[i])
				}
				i++
			})
			if back.Steps != tr.Steps || back.Runs != tr.Runs {
				t.Fatalf("metadata lost: steps %d/%d, runs %d/%d",
					back.Steps, tr.Steps, back.Runs, tr.Runs)
			}
		})
	}
}

// TestScoreStreamMatchesReplay: streaming block replay must produce exactly
// the statistics of materialized replay (also the -race exercise for the
// fan-out).
func TestScoreStreamMatchesReplay(t *testing.T) {
	tr, _ := liveEvents(t, "compress")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	mk := func() []*predict.Evaluator {
		return []*predict.Evaluator{
			{P: btb.NewSBTB(256, 256)},
			{P: btb.NewCBTB(256, 256, 2, 2)},
			{P: predict.AlwaysNotTaken{}},
		}
	}
	seq, str := mk(), mk()
	for _, e := range seq {
		tr.Replay(e.Hook())
	}
	d, err := tracefile.NewBCT2Reader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]vm.BranchFunc, len(str))
	for i, e := range str {
		hooks[i] = e.Hook()
	}
	if err := tracefile.ScoreStream(context.Background(), d, hooks...); err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].S != str[i].S {
			t.Fatalf("evaluator %d: stream stats differ:\nseq %+v\nstr %+v", i, seq[i].S, str[i].S)
		}
	}
	if d.Events() != uint64(tr.Len()) || d.Steps() != tr.Steps || d.Runs() != tr.Runs {
		t.Fatalf("stream accounting wrong: %d events, %d steps, %d runs",
			d.Events(), d.Steps(), d.Runs())
	}
}

func TestScoreStreamHonorsContext(t *testing.T) {
	tr, _ := liveEvents(t, "wc")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := tracefile.NewBCT2Reader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = tracefile.ScoreStream(ctx, d, func(vm.BranchEvent) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
}

// bct2Bytes returns wc's run-0 trace in BCT2 encoding.
func bct2Bytes(t *testing.T) []byte {
	t.Helper()
	tr, _ := liveEvents(t, "wc")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBCT2CorruptionDiagnosed: a flipped payload byte must fail the block
// checksum with an error naming the block and byte offset — not decode
// silently, and not surface as a bare EOF.
func TestBCT2CorruptionDiagnosed(t *testing.T) {
	enc := bct2Bytes(t)
	bad := bytes.Clone(enc)
	bad[len(bad)/2] ^= 0xff
	_, err := tracefile.ReadTrace(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("corrupt stream decoded cleanly")
	}
	msg := err.Error()
	if !strings.Contains(msg, "block") || !strings.Contains(msg, "offset") {
		t.Fatalf("corruption error lacks location: %v", err)
	}
}

// TestBCT2TruncationDiagnosed: a stream cut short at any point must return
// an error satisfying errors.Is(err, io.ErrUnexpectedEOF) — never a bare
// io.EOF, which callers would take for a clean end — and locate the failure.
func TestBCT2TruncationDiagnosed(t *testing.T) {
	enc := bct2Bytes(t)
	for _, cut := range []int{5, 6, len(enc) / 2, len(enc) - 1} {
		_, err := tracefile.ReadTrace(bytes.NewReader(enc[:cut]))
		if err == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF in chain", cut, err)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("cut at %d: error lacks offset: %v", cut, err)
		}
	}
}

func TestBCT2BadMagicAndVersion(t *testing.T) {
	if _, err := tracefile.NewBCT2Reader(strings.NewReader("BCTX....")); !errors.Is(err, tracefile.ErrBadMagic) {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}
	if _, err := tracefile.NewBCT2Reader(strings.NewReader("BCT2\x63rest")); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v, want version error", err)
	}
}

// TestWriteToDefaultsToBCT2: the io.WriterTo-style serializer must emit the
// BCT2 format.
func TestWriteToDefaultsToBCT2(t *testing.T) {
	tr, _ := liveEvents(t, "wc")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("BCT2")) {
		t.Fatalf("WriteTo wrote magic %q, want BCT2", buf.Bytes()[:4])
	}
}

// FuzzBCT2Decode hammers the block decoder with mutated streams: whatever
// the bytes, decoding must terminate without panicking, and any non-EOF
// outcome must be a located error. A stream that decodes to EOF must also
// load through ReadTrace and replay, without panicking, to exactly the
// events block decoding produced.
func FuzzBCT2Decode(f *testing.F) {
	tr, err := tracefile.Record(mustProgram(f), [][]byte{nil})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte("BCT2\x01"))
	f.Add([]byte{})
	// Adversarial seeds promoted from fuzzing and the corruption table:
	// CRC-valid frames whose payloads are structurally hostile, so mutation
	// starts inside the decoder's validators instead of bouncing off the
	// checksum, plus framing-level pathologies.
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(seedBlock([]byte{0x00, 0x00}))                              // zero event count
	f.Add(seedBlock([]byte{0x01, 0x7f}))                              // site count > event count
	f.Add(seedBlock([]byte{0x01, 0x00, 0x7f}))                        // event references site 31 of an empty dictionary
	f.Add(seedBlock([]byte{0x01, 0x01, 0x15, 0x00}))                  // site entry with negative pc
	f.Add([]byte("BCT2\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80")) // frame-length varint overflow
	f.Add([]byte("BCT2\x01\x00\x64\x01\xde\xad\xbe\xef"))             // end marker, bogus trailer CRC
	f.Add(dupPCStream())                                              // one pc, two static identities
	f.Add(retargetStream())                                           // a direct branch changing target
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := tracefile.NewBCT2Reader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var decoded, evs []vm.BranchEvent
		for err == nil {
			if evs, err = d.NextBlock(decoded); err == nil {
				decoded = evs
			}
		}
		if !errors.Is(err, io.EOF) {
			if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("decode error lacks location: %v", err)
			}
			return
		}
		tr, err := tracefile.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("stream decodes to EOF but does not load: %v", err)
		}
		i := 0
		tr.Replay(func(ev vm.BranchEvent) {
			if i >= len(decoded) || ev != decoded[i] {
				t.Fatalf("replayed event %d = %+v, block decoding gave %d events", i, ev, len(decoded))
			}
			i++
		})
		if i != len(decoded) {
			t.Fatalf("replayed %d events, block decoding gave %d", i, len(decoded))
		}
	})
}

// seedBlock frames a payload as a single CRC-valid BCT2 block: the checksum
// passes, so the decoder's structural validation is what rejects it.
func seedBlock(payload []byte) []byte {
	s := append([]byte("BCT2\x01"), binary.AppendUvarint(nil, uint64(len(payload)))...)
	s = append(s, payload...)
	return binary.LittleEndian.AppendUint32(s, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// mustProgram compiles wc for the fuzz seed corpus.
func mustProgram(f *testing.F) *isa.Program {
	b, err := workloads.ByName("wc")
	if err != nil {
		f.Fatal(err)
	}
	p, err := b.Program()
	if err != nil {
		f.Fatal(err)
	}
	return p
}
