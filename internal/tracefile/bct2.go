package tracefile

// The BCT2 format: a block-structured, varint+delta-encoded trace encoding
// designed for disk-resident corpora. Rather than spend a fixed width per
// event, BCT2 exploits the structure of a branch stream — a small static
// site set revisited by a long dynamic stream — the same way the in-memory
// Trace does, and adds per-block checksums so corruption is detected and
// located instead of silently replayed.
//
// Layout (after the 4-byte magic "BCT2" and a 1-byte version):
//
//	block*:
//	    payloadLen uvarint        (> 0; 0 introduces the end marker)
//	    payload    payloadLen bytes
//	    crc32c     uint32 LE      (Castagnoli, over payload)
//	end marker:
//	    0          uvarint
//	    steps      uvarint        } trailer, crc32c-checked like a payload
//	    runs       uvarint        }
//	    crc32c     uint32 LE
//
// Each payload is self-delimiting:
//
//	nEvents    uvarint
//	nNewSites  uvarint           (sites first referenced in this block)
//	site entry * nNewSites:
//	    pcDelta  varint           (pc − previous entry's pc, across blocks)
//	    idDelta  varint           (id − pc)
//	    opByte   byte             (opcode; bit 7 = likely)
//	event * nEvents:
//	    w        uvarint          (siteIndex<<2 | taken<<1 | hasTarget)
//	    target   varint           (target − site pc; present iff hasTarget)
//
// Branch targets are not stored in the dictionary: both ends learn each
// site's per-direction target from the first event that takes the direction
// (hasTarget set), and later events in the same direction omit it. Indirect
// jumps (JMPI), whose targets are run-time data, carry a target every event.
// Encoder and decoder maintain this dictionary in lockstep, so the stream
// decodes deterministically block by block — no seeking, no global tables —
// which is what lets replay consume a corpus file larger than memory.
import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/pcindex"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

var magic2 = [4]byte{'B', 'C', 'T', '2'}

// ErrBadMagic reports a stream that is not a BCT2 trace file.
var ErrBadMagic = errors.New("tracefile: bad magic (not a BCT2 trace)")

const (
	bct2Version = 1

	// blockEvents is the writer's flush threshold. 32Ki events encode to
	// roughly 40–80 KiB, a comfortable unit for pipelined decode.
	blockEvents = 1 << 15

	// maxBlockBytes bounds a block's payload on decode, so a corrupt length
	// field cannot demand an absurd allocation.
	maxBlockBytes = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errVarint = errors.New("varint overflows 64 bits")

// BCT2Writer streams branch events to w in the BCT2 encoding. It needs no
// seeking: the event count lives per block and the run metadata in the
// trailer, so any io.Writer (a pipe, a compressor, a network socket) works.
type BCT2Writer struct {
	// Steps and Runs are written into the trailer by Close; set them before
	// closing when the recording pass tracked them.
	Steps int64
	Runs  int

	w        io.Writer
	sites    []traceSite
	bySite   pcindex.Index
	newSites []uint32 // sites first seen in the current block
	events   []byte   // encoded event stream of the current block
	head     []byte   // flush's reused payload header
	frame    []byte   // flush's reused block frame
	nEvents  int
	count    uint64
	blocks   int
	prevPC   int32 // previous dictionary entry's pc (delta basis)
	err      error
}

// NewBCT2Writer writes the magic and version and returns a writer.
func NewBCT2Writer(w io.Writer) (*BCT2Writer, error) {
	tw := &BCT2Writer{w: w}
	hdr := append(append([]byte{}, magic2[:]...), bct2Version)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// Hook returns a vm.BranchFunc recording every counted branch (CALL events
// pass through unrecorded, matching the evaluator's view).
func (tw *BCT2Writer) Hook() vm.BranchFunc {
	return func(ev vm.BranchEvent) {
		if !ev.Op.IsBranch() {
			return
		}
		tw.Record(ev)
	}
}

// Record appends one event. The first error sticks and is returned by Close;
// an event that contradicts its PC's earlier events (see Trace.Record) is
// one.
func (tw *BCT2Writer) Record(ev vm.BranchEvent) {
	if tw.err != nil {
		return
	}
	if !ev.Op.Valid() || !ev.Op.IsBranch() {
		tw.err = fmt.Errorf("tracefile: bct2: recording non-branch op %d", uint8(ev.Op))
		return
	}
	idx, ok := tw.bySite.Get(ev.PC)
	if !ok {
		idx = uint32(len(tw.sites))
		tw.sites = append(tw.sites, newSite(ev))
		tw.bySite.Put(ev.PC, idx)
		tw.newSites = append(tw.newSites, idx)
	}
	// The decoder learns per-direction targets from the first event carrying
	// one; only JMPI (dynamic targets) and first sightings pay the extra word.
	inline, ok := tw.sites[idx].admit(ev)
	if !ok {
		tw.err = fmt.Errorf("tracefile: bct2: event %d: %w", tw.count, tw.sites[idx].conflict(ev))
		return
	}
	w := uint64(idx) << 2
	if ev.Taken {
		w |= 2
	}
	if inline {
		w |= 1
	}
	tw.events = binary.AppendUvarint(tw.events, w)
	if inline {
		tw.events = binary.AppendVarint(tw.events, int64(ev.Target)-int64(ev.PC))
	}
	tw.nEvents++
	tw.count++
	if tw.nEvents >= blockEvents {
		tw.flush()
	}
}

// encode appends every event of t, read straight from its packed words,
// exactly as Record would encode the replayed events: sites are numbered in
// the order the stream first references them (a trace read from a file
// lists its sites in dictionary order, and may list some that no event
// references), and a direct branch's target goes inline only on the first
// event in each direction. The trace admitted every event when it was
// recorded or decoded, so the only check left is Record's opcode check,
// once per site. The event append is Record's, written out here: the call
// would cost a third of the loop.
func (tw *BCT2Writer) encode(t *Trace) {
	stream, sites := t.stream, t.sites
	num := make([]uint32, len(sites))  // trace site -> writer site + 1; 0 until referenced
	sent := make([]bool, 2*len(sites)) // per packed word: its direction's target went inline
	for pos := 0; pos < len(stream) && tw.err == nil; {
		word := stream[pos]
		pos++
		i := word >> 1
		s := &sites[i]
		if num[i] == 0 {
			if !s.op.Valid() || !s.op.IsBranch() {
				tw.err = fmt.Errorf("tracefile: bct2: recording non-branch op %d", uint8(s.op))
				return
			}
			tw.sites = append(tw.sites, *s)
			num[i] = uint32(len(tw.sites))
			tw.newSites = append(tw.newSites, num[i]-1)
		}
		w := uint64(num[i]-1)<<2 | uint64(word&1)<<1
		inline, target := false, int32(0)
		switch {
		case s.op == isa.JMPI:
			inline, target = true, int32(stream[pos])
			pos++
		case !sent[word]:
			sent[word] = true
			inline, target = true, s.fallTarget
			if word&1 != 0 {
				target = s.takenTarget
			}
		}
		if inline {
			w |= 1
		}
		tw.events = binary.AppendUvarint(tw.events, w)
		if inline {
			tw.events = binary.AppendVarint(tw.events, int64(target)-int64(s.pc))
		}
		tw.nEvents++
		tw.count++
		if tw.nEvents >= blockEvents {
			tw.flush()
		}
	}
}

// flush frames and writes the current block.
func (tw *BCT2Writer) flush() {
	if tw.err != nil || tw.nEvents == 0 {
		return
	}
	head := binary.AppendUvarint(tw.head[:0], uint64(tw.nEvents))
	head = binary.AppendUvarint(head, uint64(len(tw.newSites)))
	for _, idx := range tw.newSites {
		s := &tw.sites[idx]
		head = binary.AppendVarint(head, int64(s.pc)-int64(tw.prevPC))
		head = binary.AppendVarint(head, int64(s.id)-int64(s.pc))
		op := byte(s.op)
		if s.likely {
			op |= 0x80
		}
		head = append(head, op)
		tw.prevPC = s.pc
	}
	// The payload is the header followed by the events.
	crc := crc32.Update(crc32.Checksum(head, crcTable), crcTable, tw.events)
	frame := binary.AppendUvarint(tw.frame[:0], uint64(len(head)+len(tw.events)))
	frame = append(append(frame, head...), tw.events...)
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	tw.head, tw.frame = head, frame
	if _, err := tw.w.Write(frame); err != nil {
		tw.err = err
		return
	}
	tw.blocks++
	tw.newSites = tw.newSites[:0]
	tw.events = tw.events[:0]
	tw.nEvents = 0
}

// Close flushes the last block and writes the end marker and trailer. The
// underlying writer remains open.
func (tw *BCT2Writer) Close() error {
	tw.flush()
	if tw.err != nil {
		return tw.err
	}
	trailer := binary.AppendUvarint(nil, uint64(tw.Steps))
	trailer = binary.AppendUvarint(trailer, uint64(tw.Runs))
	end := append(binary.AppendUvarint(nil, 0), trailer...)
	end = binary.LittleEndian.AppendUint32(end, crc32.Checksum(trailer, crcTable))
	if _, err := tw.w.Write(end); err != nil {
		tw.err = err
	}
	return tw.err
}

// Count returns the number of events recorded so far.
func (tw *BCT2Writer) Count() uint64 { return tw.count }

// BCT2Reader decodes a BCT2 stream block by block. It holds only the site
// dictionary and one block in memory, so a trace far larger than memory
// replays in constant space. Every error it returns locates the failure by
// block index and byte offset.
type BCT2Reader struct {
	br     *bufio.Reader
	off    int64
	sites  []traceSite
	bySite pcindex.Index    // pc -> index into sites, to reject a repeat
	buf    []byte           // reusable payload buffer
	words  []uint32         // NextBlock's reusable packed block
	table  []vm.BranchEvent // NextBlock's expansions of the dictionary
	steps  int64
	runs   int
	blocks int
	events uint64
	done   bool

	// Decode counters, nil (no-op) unless Instrument was called.
	mBlocks, mBytes, mEvents, mCRCFail *telemetry.Counter
	// Per-block decode latency distribution; nil skips the clock reads too.
	hDecode *telemetry.Histogram
}

// Instrument binds the reader's decode counters — "tracefile.bct2.blocks",
// ".bytes", ".events", and ".crc_failures" — plus the per-block decode
// latency histogram "tracefile.bct2.block_decode_ns" to set. A nil set
// (telemetry disabled) leaves the reader uninstrumented; the latency clock
// reads happen only when the histogram is bound.
func (d *BCT2Reader) Instrument(set *telemetry.Set) {
	if set == nil {
		return
	}
	d.mBlocks = set.Counter("tracefile.bct2.blocks")
	d.mBytes = set.Counter("tracefile.bct2.bytes")
	d.mEvents = set.Counter("tracefile.bct2.events")
	d.mCRCFail = set.Counter("tracefile.bct2.crc_failures")
	d.hDecode = set.Histogram("tracefile.bct2.block_decode_ns")
}

// NewBCT2Reader validates the magic and version.
func NewBCT2Reader(r io.Reader) (*BCT2Reader, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if m != magic2 {
		return nil, ErrBadMagic
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	d := &BCT2Reader{br: br, off: 4}
	v, err := d.readByte()
	if err != nil {
		return nil, fmt.Errorf("tracefile: bct2: short header: %w", noEOF(err))
	}
	if v != bct2Version {
		return nil, fmt.Errorf("tracefile: bct2: unsupported version %d", v)
	}
	return d, nil
}

func (d *BCT2Reader) readByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

func (d *BCT2Reader) readFull(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.off += int64(n)
	return err
}

// readUvarint reads a varint byte by byte; capture, when non-nil, collects
// the raw bytes (the trailer is checksummed over its encoded form).
func (d *BCT2Reader) readUvarint(capture *[]byte) (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.readByte()
		if err != nil {
			return 0, err
		}
		if capture != nil {
			*capture = append(*capture, b)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarint
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, errVarint
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside the framed
// stream, running out of bytes is always truncation, never a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// corruptf wraps a decode failure with its location.
func (d *BCT2Reader) corruptf(at int64, format string, args ...any) error {
	return fmt.Errorf("tracefile: bct2 block %d at offset %d: %s",
		d.blocks, at, fmt.Sprintf(format, args...))
}

func (d *BCT2Reader) corruptErr(at int64, what string, err error) error {
	return fmt.Errorf("tracefile: bct2 block %d at offset %d: %s: %w",
		d.blocks, at, what, noEOF(err))
}

// NextBlock decodes the next block's events, appending to dst (pass nil, or
// a slice to reuse as dst[:0]). It returns io.EOF after the end marker; any
// other error is a located corruption or truncation diagnosis.
func (d *BCT2Reader) NextBlock(dst []vm.BranchEvent) ([]vm.BranchEvent, error) {
	words, err := d.nextWords(d.words[:0])
	if err != nil {
		return nil, err
	}
	d.words = words
	d.table = expansions(d.table, d.sites)
	dst, _ = expand(dst, len(words), d.table, words, 0)
	return dst, nil
}

// nextWords decodes the next block, appending its events to dst in the
// in-memory Trace's packed encoding over the reader's dictionary (d.sites).
// It returns io.EOF after the end marker; any other error is a located
// corruption or truncation diagnosis.
func (d *BCT2Reader) nextWords(dst []uint32) ([]uint32, error) {
	if d.done {
		return nil, io.EOF
	}
	var t0 time.Time
	if d.hDecode != nil {
		t0 = time.Now()
	}
	start := d.off
	plen, err := d.readUvarint(nil)
	if err != nil {
		return nil, d.corruptErr(start, "frame length", err)
	}
	if plen == 0 {
		return nil, d.readTrailer(start)
	}
	if plen > maxBlockBytes {
		return nil, d.corruptf(start, "implausible payload length %d", plen)
	}
	if cap(d.buf) < int(plen) {
		d.buf = make([]byte, plen)
	}
	payload := d.buf[:plen]
	if err := d.readFull(payload); err != nil {
		return nil, d.corruptErr(start, "payload", err)
	}
	var crc [4]byte
	if err := d.readFull(crc[:]); err != nil {
		return nil, d.corruptErr(start, "checksum", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crc[:]); got != want {
		d.mCRCFail.Inc()
		return nil, d.corruptf(start, "checksum mismatch (got %08x, want %08x)", got, want)
	}
	before := d.events
	dst, err = d.decodePayload(payload, start, dst)
	if err != nil {
		return nil, err
	}
	d.blocks++
	d.mBlocks.Inc()
	d.mBytes.Add(d.off - start)
	d.mEvents.Add(int64(d.events - before))
	if d.hDecode != nil {
		d.hDecode.Observe(time.Since(t0).Nanoseconds())
	}
	return dst, nil
}

// readTrailer consumes the checksummed steps/runs trailer and flags the
// stream done.
func (d *BCT2Reader) readTrailer(start int64) error {
	var raw []byte
	steps, err := d.readUvarint(&raw)
	if err != nil {
		return d.corruptErr(start, "trailer steps", err)
	}
	runs, err := d.readUvarint(&raw)
	if err != nil {
		return d.corruptErr(start, "trailer runs", err)
	}
	var crc [4]byte
	if err := d.readFull(crc[:]); err != nil {
		return d.corruptErr(start, "trailer checksum", err)
	}
	if got, want := crc32.Checksum(raw, crcTable), binary.LittleEndian.Uint32(crc[:]); got != want {
		d.mCRCFail.Inc()
		return d.corruptf(start, "trailer checksum mismatch (got %08x, want %08x)", got, want)
	}
	if steps > math.MaxInt64 || runs > math.MaxInt32 {
		return d.corruptf(start, "implausible trailer (steps %d, runs %d)", steps, runs)
	}
	d.steps, d.runs, d.done = int64(steps), int(runs), true
	return io.EOF
}

// decodePayload parses one verified payload — dictionary additions, then
// events — appending the events to dst as packed words. Besides malformed
// fields it rejects a dictionary that lists a pc twice and a direct branch
// whose target in one direction changes: the writer emits neither, and
// either would make replay disagree with the events as written.
func (d *BCT2Reader) decodePayload(payload []byte, start int64, dst []uint32) ([]uint32, error) {
	pos := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	sv := func() (int64, bool) {
		v, n := binary.Varint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	nEvents, ok := uv()
	if !ok || nEvents == 0 || nEvents > blockEvents {
		return nil, d.corruptf(start, "bad event count")
	}
	nNew, ok := uv()
	if !ok || nNew > nEvents {
		return nil, d.corruptf(start, "bad site count")
	}
	prevPC := int64(0)
	if n := len(d.sites); n > 0 {
		prevPC = int64(d.sites[n-1].pc)
	}
	for i := uint64(0); i < nNew; i++ {
		pcDelta, ok1 := sv()
		idDelta, ok2 := sv()
		if !ok1 || !ok2 || pos >= len(payload) {
			return nil, d.corruptf(start, "truncated site entry %d", i)
		}
		opByte := payload[pos]
		pos++
		pc := prevPC + pcDelta
		id := pc + idDelta
		op := isa.Op(opByte & 0x7f)
		if pc < 0 || pc > math.MaxInt32 || id < 0 || id > math.MaxInt32 ||
			!op.Valid() || !op.IsBranch() {
			return nil, d.corruptf(start, "corrupt site entry %d (pc %d, op %d)", i, pc, opByte&0x7f)
		}
		if _, dup := d.bySite.Get(int32(pc)); dup {
			return nil, d.corruptf(start, "site entry %d repeats pc %d", i, pc)
		}
		d.bySite.Put(int32(pc), uint32(len(d.sites)))
		d.sites = append(d.sites, traceSite{
			pc: int32(pc), id: int32(id), op: op, likely: opByte&0x80 != 0,
			takenTarget: -1, fallTarget: -1,
		})
		prevPC = pc
	}
	for i := uint64(0); i < nEvents; i++ {
		w, ok := uv()
		if !ok {
			return nil, d.corruptf(start, "truncated event %d", i)
		}
		idx := w >> 2
		if idx >= uint64(len(d.sites)) {
			return nil, d.corruptf(start, "event %d references unknown site %d", i, idx)
		}
		s := &d.sites[idx]
		taken := w&2 != 0
		word := uint32(idx) << 1
		slot, dir := &s.fallTarget, "fall-through"
		if taken {
			word |= 1
			slot, dir = &s.takenTarget, "taken"
		}
		dst = append(dst, word)
		if w&1 == 0 {
			if s.op == isa.JMPI || *slot < 0 {
				return nil, d.corruptf(start, "event %d omits an unlearned target", i)
			}
			continue
		}
		delta, ok := sv()
		if !ok {
			return nil, d.corruptf(start, "truncated target of event %d", i)
		}
		target := int64(s.pc) + delta
		if target < 0 || target > math.MaxInt32 {
			return nil, d.corruptf(start, "event %d target %d out of range", i, target)
		}
		switch {
		case s.op == isa.JMPI:
			// dynamic target: a word of its own, never learned
			dst = append(dst, uint32(target))
		case *slot < 0:
			*slot = int32(target)
		case int64(*slot) != target:
			return nil, d.corruptf(start, "event %d changes the %s target of pc %d from %d to %d",
				i, dir, s.pc, *slot, target)
		}
	}
	if pos != len(payload) {
		return nil, d.corruptf(start, "%d trailing payload bytes", len(payload)-pos)
	}
	d.events += nEvents
	return dst, nil
}

// Steps returns the trailer's dynamic instruction count (valid after the
// stream is fully consumed).
func (d *BCT2Reader) Steps() int64 { return d.steps }

// Runs returns the trailer's recorded-run count (valid after EOF).
func (d *BCT2Reader) Runs() int { return d.runs }

// Blocks returns the number of blocks decoded so far.
func (d *BCT2Reader) Blocks() int { return d.blocks }

// Events returns the number of events decoded so far.
func (d *BCT2Reader) Events() uint64 { return d.events }

// Sites returns the number of dictionary sites decoded so far.
func (d *BCT2Reader) Sites() int { return len(d.sites) }

// Offset returns the stream position in bytes.
func (d *BCT2Reader) Offset() int64 { return d.off }

// ScoreStream is Trace.ScoreParallelContext over a BCT2 stream, without
// materializing the trace: each block is decoded once, and memory stays
// bounded by one block whatever the trace length. A decode error ends the
// replay, located.
func ScoreStream(ctx context.Context, d *BCT2Reader, hooks ...vm.BranchFunc) error {
	d.Instrument(telemetry.FromContext(ctx))
	return drive(ctx, &cursor{d: d}, asSinks(hookSinks(hooks)))
}
