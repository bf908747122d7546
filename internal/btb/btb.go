// Package btb implements the two hardware schemes of the paper: the Simple
// Branch Target Buffer (SBTB) and the Counter-based Branch Target Buffer
// (CBTB), both built on a shared associative buffer with LRU replacement.
// The paper's configuration is 256 entries, fully associative, LRU; the
// CBTB uses a 2-bit saturating counter with threshold T = 2.
package btb

import (
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

// Buffer is an associative cache of branch entries with LRU replacement.
// Assoc == Entries gives the paper's fully-associative organization.
//
// Membership is tracked in a pc -> slot index so Lookup and Delete cost
// O(1) regardless of associativity (a 1024-entry fully-associative lookup
// per branch event would otherwise dominate every sweep); only choosing an
// eviction victim scans the set, and only when the set is full. The index
// is a dense slice — branch PCs are small nonnegative program positions, so
// direct indexing beats hashing on the simulator's hottest operation.
type Buffer struct {
	sets  [][]Entry
	free  [][]int32 // per-set stack of invalid slots
	index []int32   // pc -> slot+1 within its set; 0 = absent
	count int       // valid entries
	assoc int
	clock uint64

	// Capacity metrics.
	inserts int64
	evicts  int64
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
		sets:  make([][]Entry, nsets),
		free:  make([][]int32, nsets),
		assoc: assoc,
	}
	for i := range b.sets {
		b.sets[i] = make([]Entry, assoc)
		b.free[i] = freeStack(make([]int32, 0, assoc), assoc)
	}
	return b
}

// freeStack fills f with every slot, popping order low-to-high.
func freeStack(f []int32, assoc int) []int32 {
	for j := assoc - 1; j >= 0; j-- {
		f = append(f, int32(j))
	}
	return f
}

// Entries returns the total capacity.
func (b *Buffer) Entries() int { return len(b.sets) * b.assoc }

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

func (b *Buffer) setIdx(pc int32) uint32 {
	return uint32(pc) % uint32(len(b.sets))
}

// Lookup finds the entry for pc, updating its LRU stamp on hit.
func (b *Buffer) Lookup(pc int32) (*Entry, bool) {
	b.clock++
	if int(pc) < len(b.index) {
		if s := b.index[pc]; s != 0 {
			e := &b.sets[b.setIdx(pc)][s-1]
			e.lru = b.clock
			return e, true
		}
	}
	return nil, false
}

// Insert returns the entry for pc, allocating (and evicting the LRU line of
// the set if necessary) when absent. The returned entry is valid and has its
// LRU stamp refreshed; newly allocated entries are zeroed.
func (b *Buffer) Insert(pc int32) *Entry {
	b.clock++
	si := b.setIdx(pc)
	set := b.sets[si]
	if int(pc) >= len(b.index) {
		grown := make([]int32, int(pc)+64)
		copy(grown, b.index)
		b.index = grown
	} else if s := b.index[pc]; s != 0 {
		e := &set[s-1]
		e.lru = b.clock
		return e
	}
	var slot int32
	if f := b.free[si]; len(f) > 0 {
		slot = f[len(f)-1]
		b.free[si] = f[:len(f)-1]
	} else {
		// Set full: evict the least recently used line. Stamps are unique
		// (the clock advances on every access), so the victim is unique.
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[slot].lru {
				slot = int32(i)
			}
		}
		b.index[set[slot].PC] = 0
		b.evicts++
		b.count--
	}
	b.inserts++
	b.count++
	set[slot] = Entry{PC: pc, valid: true, lru: b.clock}
	b.index[pc] = slot + 1
	return &set[slot]
}

// Delete invalidates the entry for pc if present.
func (b *Buffer) Delete(pc int32) {
	if int(pc) >= len(b.index) {
		return
	}
	s := b.index[pc]
	if s == 0 {
		return
	}
	si := b.setIdx(pc)
	b.sets[si][s-1] = Entry{}
	b.index[pc] = 0
	b.count--
	b.free[si] = append(b.free[si], s-1)
}

// Reset invalidates every entry (context-switch simulation).
func (b *Buffer) Reset() {
	for si, set := range b.sets {
		for i := range set {
			set[i] = Entry{}
		}
		b.free[si] = freeStack(b.free[si][:0], b.assoc)
	}
	for i := range b.index {
		b.index[i] = 0
	}
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
