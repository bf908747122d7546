// Package btb implements the two hardware schemes of the paper: the Simple
// Branch Target Buffer (SBTB) and the Counter-based Branch Target Buffer
// (CBTB), both built on a shared associative buffer with LRU replacement.
// The paper's configuration is 256 entries, fully associative, LRU; the
// CBTB uses a 2-bit saturating counter with threshold T = 2.
package btb

import (
	"branchcost/internal/pcindex"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// Entry is one buffer line. Target caches the most recent taken target
// (standing in for the "first k target instructions" the hardware stores —
// only the address matters to the prediction-accuracy measurement).
type Entry struct {
	PC      int32
	Target  int32
	Counter uint8
	valid   bool
	lru     uint64
}

// Buffer is an associative cache of branch entries with exact LRU
// replacement. Assoc == Entries gives the paper's fully-associative
// organization.
//
// Every line lives in one flat slice, set s holding lines [s*assoc,
// (s+1)*assoc), and a pc -> line index finds a resident branch, so a hit
// costs one index load and one LRU stamp store whatever the associativity.
// The index is a pcindex.Index: a slice for PCs below pcindex.MaxDense and
// a map for any other PC, so a hostile PC costs one map entry, never an
// allocation the size of the PC.
//
// A full set evicts its least recently used line without scanning it: the
// set remembers its batchLines oldest lines as of its last scan (see
// victim), and only a used-up batch costs a scan.
type Buffer struct {
	lines []Entry
	index pcindex.Index // resident pc -> line
	sets  []setState
	free  []int32   // per-set stacks of invalid lines, set s's at s*assoc
	old   []oldLine // per-set batches of oldest lines, set s's at s*batch
	assoc int
	batch int // lines per set batch: min(assoc, batchLines)
	count int // valid entries
	clock uint64

	// Capacity metrics.
	inserts int64
	evicts  int64
}

// batchLines is how many of a set's oldest lines one scan remembers.
const batchLines = 32

// setState is one set's free-stack depth and its batch cursor: the
// batch's lines before next have been evicted or touched since the scan.
type setState struct {
	free, next int32
}

// oldLine is a batch member: a line and its LRU stamp when the set was
// scanned.
type oldLine struct {
	line int32
	lru  uint64
}

// NewBuffer returns a buffer with the given total entries and associativity.
// It panics on a geometry predict.BTBGeometry.Validate rejects (entries not
// a positive multiple of assoc).
func NewBuffer(entries, assoc int) *Buffer {
	if err := (predict.BTBGeometry{Entries: entries, Assoc: assoc}).Validate(); err != nil {
		panic(err)
	}
	nsets := entries / assoc
	b := &Buffer{
		lines: make([]Entry, entries),
		sets:  make([]setState, nsets),
		free:  make([]int32, entries),
		assoc: assoc,
		batch: min(assoc, batchLines),
	}
	b.old = make([]oldLine, nsets*b.batch)
	b.emptySets()
	return b
}

// emptySets empties every set: each set's free stack holds all its lines,
// popping low to high, and its batch is used up.
func (b *Buffer) emptySets() {
	for s := range b.sets {
		free := b.free[s*b.assoc : (s+1)*b.assoc]
		for j := range free {
			free[j] = int32((s+1)*b.assoc - 1 - j)
		}
		b.sets[s] = setState{free: int32(b.assoc), next: int32(b.batch)}
	}
}

// Entries returns the total capacity.
func (b *Buffer) Entries() int { return len(b.lines) }

// Assoc returns the associativity.
func (b *Buffer) Assoc() int { return b.assoc }

// Evictions returns how many valid entries were replaced.
func (b *Buffer) Evictions() int64 { return b.evicts }

// Inserts returns how many entries were allocated (excluding refreshes of
// already-present lines).
func (b *Buffer) Inserts() int64 { return b.inserts }

// metrics implements predict.MetricSource for the buffer-backed schemes.
func (b *Buffer) metrics() map[string]int64 {
	return map[string]int64{
		"inserts":   b.inserts,
		"evictions": b.evicts,
		"occupancy": int64(b.count),
	}
}

// entryBits is the storage cost of one buffer line: a 32-bit tag (the full
// PC — the simulator's PCs are program positions, charged at word width), a
// 32-bit target and a valid bit. Counter bits are charged by the scheme.
const entryBits = 32 + 32 + 1

// storageBits is the buffer's state in bits, excluding per-entry counters.
func (b *Buffer) storageBits() int64 {
	return int64(b.Entries()) * entryBits
}

// setOf returns the set pc maps to: pc modulo the set count. Only a miss
// that allocates and a Delete need it; a hit goes through the index.
func (b *Buffer) setOf(pc int32) int {
	return int(uint32(pc) % uint32(len(b.sets)))
}

// Lookup finds the entry for pc, updating its LRU stamp on hit.
func (b *Buffer) Lookup(pc int32) (*Entry, bool) {
	b.clock++
	l, ok := b.index.Get(pc)
	if !ok {
		return nil, false
	}
	e := &b.lines[l]
	e.lru = b.clock
	return e, true
}

// Insert returns the entry for pc, allocating (and evicting the LRU line of
// the set if necessary) when absent. The returned entry is valid and has its
// LRU stamp refreshed; newly allocated entries are zeroed.
func (b *Buffer) Insert(pc int32) *Entry {
	b.clock++
	if l, ok := b.index.Get(pc); ok {
		e := &b.lines[l]
		e.lru = b.clock
		return e
	}
	s := b.setOf(pc)
	st := &b.sets[s]
	var l int32
	if st.free > 0 {
		st.free--
		l = b.free[s*b.assoc+int(st.free)]
	} else {
		l = b.victim(s)
		b.index.Delete(b.lines[l].PC)
		b.evicts++
		b.count--
	}
	b.inserts++
	b.count++
	b.lines[l] = Entry{PC: pc, valid: true, lru: b.clock}
	b.index.Put(pc, uint32(l))
	return &b.lines[l]
}

// victim returns the least recently used line of set s, which is full.
//
// The set's batch holds, oldest first, the lines that were its oldest when
// it was last scanned, each with its stamp then. Stamps only grow, and
// every access stamps a line with a clock later than that scan, so a line
// still carrying its remembered stamp is older than every line outside
// the batch and every line touched, deleted or refilled since: the first
// batch line whose stamp is unchanged is the set's exact LRU line. Lines
// touched since are passed over for good, and a used-up batch is rebuilt
// by one scan. Each member is passed over or evicted once, so a scan of
// assoc lines is paid for by batch accesses or evictions.
func (b *Buffer) victim(s int) int32 {
	st := &b.sets[s]
	old := b.old[s*b.batch : (s+1)*b.batch]
	for {
		for int(st.next) < len(old) {
			o := old[st.next]
			st.next++
			if b.lines[o.line].lru == o.lru {
				return o.line
			}
		}
		b.rescan(s)
	}
}

// rescan refills set s's batch with its oldest lines, oldest first: a
// max-heap keeps the oldest seen so far, and a heap sort orders them.
func (b *Buffer) rescan(s int) {
	base := s * b.assoc
	lines := b.lines[base : base+b.assoc]
	h := b.old[s*b.batch : (s+1)*b.batch]
	for i := range h {
		h[i] = oldLine{line: int32(base + i), lru: lines[i].lru}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := len(h); i < len(lines); i++ {
		if lines[i].lru < h[0].lru {
			h[0] = oldLine{line: int32(base + i), lru: lines[i].lru}
			siftDown(h, 0)
		}
	}
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	b.sets[s].next = 0
}

// siftDown restores max-heap order by stamp below h[i].
func siftDown(h []oldLine, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].lru > h[c].lru {
			c++
		}
		if h[i].lru >= h[c].lru {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Delete invalidates the entry for pc if present.
func (b *Buffer) Delete(pc int32) {
	l, ok := b.index.Get(pc)
	if !ok {
		return
	}
	b.index.Delete(pc)
	b.lines[l] = Entry{}
	b.count--
	s := b.setOf(pc)
	b.free[s*b.assoc+int(b.sets[s].free)] = int32(l)
	b.sets[s].free++
}

// Reset invalidates every entry (context-switch simulation).
func (b *Buffer) Reset() {
	for i := range b.lines {
		if b.lines[i].valid {
			b.index.Delete(b.lines[i].PC)
			b.lines[i] = Entry{}
		}
	}
	b.emptySets()
	b.count = 0
}

// Len returns the number of valid entries.
func (b *Buffer) Len() int { return b.count }

// SBTB is the Simple Branch Target Buffer: it remembers taken branches; a
// hit predicts taken, a miss predicts not-taken, and a hit whose branch
// executes not-taken is deleted.
type SBTB struct{ buf *Buffer }

// NewSBTB returns an SBTB with the given geometry. The paper's
// configuration is NewSBTB(256, 256).
func NewSBTB(entries, assoc int) *SBTB { return &SBTB{buf: NewBuffer(entries, assoc)} }

// Name implements predict.Predictor.
func (s *SBTB) Name() string { return "sbtb" }

// Buffer exposes the underlying buffer for inspection in tests.
func (s *SBTB) Buffer() *Buffer { return s.buf }

// Predict implements predict.Predictor.
func (s *SBTB) Predict(ev vm.BranchEvent) predict.Prediction {
	if e, ok := s.buf.Lookup(ev.PC); ok {
		return predict.Prediction{Taken: true, Target: e.Target, Hit: true}
	}
	return predict.Prediction{Taken: false, Hit: false}
}

// Update implements predict.Predictor.
func (s *SBTB) Update(ev vm.BranchEvent) { s.Step(ev) }

// Step implements predict.Stepper with one buffer lookup: a taken branch
// caches its target (allocating on a miss), and a hit on a not-taken
// branch deletes the line.
func (s *SBTB) Step(ev vm.BranchEvent) predict.Prediction {
	e, ok := s.buf.Lookup(ev.PC)
	if !ok {
		if ev.Taken {
			s.buf.Insert(ev.PC).Target = ev.Target
		}
		return predict.Prediction{Taken: false, Hit: false}
	}
	p := predict.Prediction{Taken: true, Target: e.Target, Hit: true}
	if ev.Taken {
		e.Target = ev.Target
	} else {
		s.buf.Delete(ev.PC)
	}
	return p
}

// Reset implements predict.Predictor.
func (s *SBTB) Reset() { s.buf.Reset() }

// Metrics implements predict.MetricSource.
func (s *SBTB) Metrics() map[string]int64 {
	m := s.buf.metrics()
	m["storage_bits"] = s.StorageBits()
	return m
}

// StorageBits implements predict.StorageSized.
func (s *SBTB) StorageBits() int64 { return s.buf.storageBits() }

// CBTB is the Counter-based Branch Target Buffer: every executed branch is
// eligible for an entry; an n-bit saturating counter with threshold T
// predicts the direction (taken when counter >= T).
//
// The paper's text says "predicted taken when C > T", but with its T = 2 and
// initialization to T on a taken branch that reading would predict a
// just-taken branch not-taken; we use >= as in J. E. Smith's original
// scheme, which the paper cites as the source.
type CBTB struct {
	buf       *Buffer
	bits      int
	max       uint8 // 2^bits - 1
	threshold uint8
}

// NewCBTB returns a CBTB with the given geometry and counter configuration.
// The paper's configuration is NewCBTB(256, 256, 2, 2). It panics on a
// configuration predict.CBTBConfig.Validate rejects.
func NewCBTB(entries, assoc, bits int, threshold uint8) *CBTB {
	if err := (predict.CounterConfig{Bits: bits, Threshold: &threshold}).Validate(); err != nil {
		panic(err)
	}
	return &CBTB{buf: NewBuffer(entries, assoc), bits: bits, max: uint8(1)<<bits - 1, threshold: threshold}
}

// Name implements predict.Predictor.
func (c *CBTB) Name() string { return "cbtb" }

// Buffer exposes the underlying buffer for inspection in tests.
func (c *CBTB) Buffer() *Buffer { return c.buf }

// Predict implements predict.Predictor.
func (c *CBTB) Predict(ev vm.BranchEvent) predict.Prediction {
	if e, ok := c.buf.Lookup(ev.PC); ok {
		if e.Counter >= c.threshold {
			return predict.Prediction{Taken: true, Target: e.Target, Hit: true}
		}
		return predict.Prediction{Taken: false, Hit: true}
	}
	return predict.Prediction{Taken: false, Hit: false}
}

// Update implements predict.Predictor.
func (c *CBTB) Update(ev vm.BranchEvent) { c.Step(ev) }

// Step implements predict.Stepper: one lookup serves the prediction and
// the update. A missing branch gets an entry, its counter at the threshold
// when taken and just below it otherwise.
func (c *CBTB) Step(ev vm.BranchEvent) predict.Prediction {
	e, ok := c.buf.Lookup(ev.PC)
	if !ok {
		e = c.buf.Insert(ev.PC)
		e.Target = -1
		if ev.Taken {
			e.Counter = c.threshold
			e.Target = ev.Target
		} else if c.threshold > 0 {
			e.Counter = c.threshold - 1
		}
		return predict.Prediction{Taken: false, Hit: false}
	}
	p := predict.Prediction{Taken: false, Hit: true}
	if e.Counter >= c.threshold {
		p = predict.Prediction{Taken: true, Target: e.Target, Hit: true}
	}
	if ev.Taken {
		if e.Counter < c.max {
			e.Counter++
		}
		e.Target = ev.Target
	} else if e.Counter > 0 {
		e.Counter--
	}
	return p
}

// Reset implements predict.Predictor.
func (c *CBTB) Reset() { c.buf.Reset() }

// Metrics implements predict.MetricSource.
func (c *CBTB) Metrics() map[string]int64 {
	m := c.buf.metrics()
	m["storage_bits"] = c.StorageBits()
	return m
}

// StorageBits implements predict.StorageSized: the buffer lines plus one
// counter per entry.
func (c *CBTB) StorageBits() int64 {
	return c.buf.storageBits() + int64(c.buf.Entries())*int64(c.bits)
}
