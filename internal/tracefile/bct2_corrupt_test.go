package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"branchcost/internal/isa"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// tinyBCT2 writes a minimal two-site, four-event stream whose every field
// offset the layout parser below can locate — the corruption target.
func tinyBCT2(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewBCT2Writer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []vm.BranchEvent{
		{PC: 10, ID: 0, Op: isa.BEQ, Taken: true, Target: 20},
		{PC: 12, ID: 1, Op: isa.BNE, Taken: false, Target: 13},
		{PC: 10, ID: 0, Op: isa.BEQ, Taken: true, Target: 20},
		{PC: 10, ID: 0, Op: isa.BEQ, Taken: false, Target: 11},
	} {
		w.Record(ev)
	}
	w.Steps, w.Runs = 100, 1
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bct2Layout holds the absolute byte offset of every field of a single-block
// BCT2 stream, so the corruption table can flip each one precisely.
type bct2Layout struct {
	version    int // version byte
	lenOff     int // block payload-length uvarint
	payload    int // first payload byte (= nEvents)
	plen       int
	crc        int // block CRC-32C
	nEvents    int
	nNew       int
	site       int // first site entry's pcDelta varint
	siteOp     int // first site entry's opcode byte
	events     int // first event word
	end        int // end-marker zero byte
	steps      int // trailer steps uvarint
	runs       int // trailer runs uvarint
	trailerCRC int // trailer CRC-32C
}

func layoutBCT2(t *testing.T, enc []byte) bct2Layout {
	t.Helper()
	uv := func(pos int) (uint64, int) {
		v, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			t.Fatalf("layout: bad uvarint at %d", pos)
		}
		return v, pos + n
	}
	sv := func(pos int) int {
		_, n := binary.Varint(enc[pos:])
		if n <= 0 {
			t.Fatalf("layout: bad varint at %d", pos)
		}
		return pos + n
	}
	l := bct2Layout{version: 4, lenOff: 5}
	plen, pos := uv(l.lenOff)
	if plen == 0 {
		t.Fatal("layout: stream has no blocks")
	}
	l.payload, l.plen = pos, int(plen)
	l.crc = l.payload + l.plen
	l.nEvents = l.payload
	_, pos = uv(l.nEvents)
	l.nNew = pos
	nNew, pos := uv(l.nNew)
	l.site = pos
	for i := uint64(0); i < nNew; i++ {
		end := sv(sv(pos)) // pcDelta, idDelta
		if i == 0 {
			l.siteOp = end
		}
		pos = end + 1 // opcode byte
	}
	l.events = pos
	// Walk the remaining blocks to the end marker (tinyBCT2 emits one block,
	// but stay general).
	pos = l.crc + 4
	for {
		var plen uint64
		start := pos
		plen, pos = uv(pos)
		if plen == 0 {
			l.end = start
			break
		}
		pos += int(plen) + 4
	}
	l.steps = pos
	_, pos = uv(l.steps)
	l.runs = pos
	_, pos = uv(l.runs)
	l.trailerCRC = pos
	return l
}

// fixBlockCRC recomputes the first block's checksum so a payload-field
// corruption reaches the structural validators instead of the CRC check.
func fixBlockCRC(enc []byte, l bct2Layout) {
	sum := crc32.Checksum(enc[l.payload:l.payload+l.plen], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(enc[l.crc:], sum)
}

// TestBCT2FieldCorruption corrupts every field of the block framing — length,
// dictionary, event stream, checksums, end marker, trailer — one at a time,
// cuts the trailer short and appends bytes after it, and requires a
// diagnosed failure for each: an error naming the failure (located by block
// and offset for every in-stream fault), never a panic, a bare EOF, a
// silently truncated decode, or a decode of the first trace of two.
func TestBCT2FieldCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(enc []byte, l bct2Layout) []byte
		want   string // substring the error must contain
	}{
		{"version", func(enc []byte, l bct2Layout) []byte {
			enc[l.version] = 0x63
			return enc
		}, "version"},
		{"payload-length-continuation", func(enc []byte, l bct2Layout) []byte {
			// Setting the continuation bit splices the payload's first byte
			// into the length varint: everything downstream misparses.
			enc[l.lenOff] |= 0x80
			return enc
		}, "offset"},
		{"payload-length-reads-as-end-marker", func(enc []byte, l bct2Layout) []byte {
			enc[l.lenOff] = 0x00
			return enc
		}, "offset"},
		{"event-count-zero", func(enc []byte, l bct2Layout) []byte {
			enc[l.nEvents] = 0x00
			fixBlockCRC(enc, l)
			return enc
		}, "bad event count"},
		{"site-count-exceeds-events", func(enc []byte, l bct2Layout) []byte {
			enc[l.nNew] = 0x7f
			fixBlockCRC(enc, l)
			return enc
		}, "bad site count"},
		{"site-pc-delta-negative", func(enc []byte, l bct2Layout) []byte {
			// Odd zigzag values are negative: the first site's pc goes below 0.
			enc[l.site] |= 0x01
			fixBlockCRC(enc, l)
			return enc
		}, "site entry"},
		{"site-opcode-not-a-branch", func(enc []byte, l bct2Layout) []byte {
			enc[l.siteOp] = 0x00
			fixBlockCRC(enc, l)
			return enc
		}, "site entry"},
		{"event-references-unknown-site", func(enc []byte, l bct2Layout) []byte {
			enc[l.events] = 0x7f // site index 31 of a two-site dictionary
			fixBlockCRC(enc, l)
			return enc
		}, "unknown site"},
		{"event-stream-byte-flip", func(enc []byte, l bct2Layout) []byte {
			enc[l.events+1] ^= 0xff
			return enc
		}, "checksum mismatch"},
		{"block-crc-flip", func(enc []byte, l bct2Layout) []byte {
			enc[l.crc] ^= 0xff
			return enc
		}, "checksum mismatch"},
		{"end-marker-nonzero", func(enc []byte, l bct2Layout) []byte {
			// The trailer now frames as a block: its bytes cannot checksum.
			enc[l.end] = 0x01
			return enc
		}, "offset"},
		{"trailer-steps-flip", func(enc []byte, l bct2Layout) []byte {
			enc[l.steps] ^= 0x40
			return enc
		}, "trailer checksum mismatch"},
		{"trailer-runs-flip", func(enc []byte, l bct2Layout) []byte {
			enc[l.runs] ^= 0x01
			return enc
		}, "trailer checksum mismatch"},
		{"trailer-crc-flip", func(enc []byte, l bct2Layout) []byte {
			enc[l.trailerCRC] ^= 0xff
			return enc
		}, "trailer checksum mismatch"},
		{"trailer-truncated", func(enc []byte, l bct2Layout) []byte {
			return enc[:l.trailerCRC+2]
		}, "trailer checksum"},
		{"second-trace-after-trailer", func(enc []byte, l bct2Layout) []byte {
			return append(enc, enc...)
		}, "data after the trailer"},
		{"garbage-after-trailer", func(enc []byte, l bct2Layout) []byte {
			return append(enc, "garbage"...)
		}, "data after the trailer"},
	}
	enc := tinyBCT2(t)
	if _, err := tracefile.ReadTrace(bytes.NewReader(enc)); err != nil {
		t.Fatalf("clean stream failed to decode: %v", err)
	}
	l := layoutBCT2(t, enc)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tracefile.ReadTrace(bytes.NewReader(tc.mutate(bytes.Clone(enc), l)))
			if err == nil {
				t.Fatal("corrupt stream decoded cleanly")
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("corruption surfaced as bare EOF: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if tc.name != "version" && !strings.Contains(err.Error(), "offset") {
				t.Fatalf("error %q is not located", err)
			}
		})
	}
}

// TestBCT2CorruptionNeverShortens: every single-byte corruption of the block
// body must either fail with a located error or (for the trailer fields,
// whose flips can re-checksum validly only by collision) decode the exact
// event count — a corrupted stream must never decode to fewer events than
// were written.
func TestBCT2CorruptionNeverShortens(t *testing.T) {
	enc := tinyBCT2(t)
	l := layoutBCT2(t, enc)
	for off := l.lenOff; off < l.crc+4; off++ {
		bad := bytes.Clone(enc)
		bad[off] ^= 0x10
		_, err := tracefile.ReadTrace(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at offset %d decoded cleanly past the block checksum", off)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("flip at offset %d: error lacks location: %v", off, err)
		}
	}
}
