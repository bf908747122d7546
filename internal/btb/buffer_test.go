package btb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"branchcost/internal/pcindex"
)

// lruModel is the naive reference for Buffer: per set, an unordered list of
// resident lines, each stamped with the clock of its last access, and a
// full set evicts the line with the smallest stamp.
type lruModel struct {
	sets            [][]modelLine
	assoc           int
	clock           uint64
	inserts, evicts int64
}

type modelLine struct {
	pc, target int32
	counter    uint8
	last       uint64
}

func newLRUModel(entries, assoc int) *lruModel {
	return &lruModel{sets: make([][]modelLine, entries/assoc), assoc: assoc}
}

func (m *lruModel) set(pc int32) *[]modelLine {
	return &m.sets[uint32(pc)%uint32(len(m.sets))]
}

func (m *lruModel) find(pc int32) *modelLine {
	set := *m.set(pc)
	for i := range set {
		if set[i].pc == pc {
			return &set[i]
		}
	}
	return nil
}

func (m *lruModel) lookup(pc int32) *modelLine {
	m.clock++
	l := m.find(pc)
	if l != nil {
		l.last = m.clock
	}
	return l
}

func (m *lruModel) insert(pc int32) *modelLine {
	m.clock++
	if l := m.find(pc); l != nil {
		l.last = m.clock
		return l
	}
	set := m.set(pc)
	if len(*set) == m.assoc {
		v := 0
		for i := range *set {
			if (*set)[i].last < (*set)[v].last {
				v = i
			}
		}
		*set = append((*set)[:v], (*set)[v+1:]...)
		m.evicts++
	}
	m.inserts++
	*set = append(*set, modelLine{pc: pc, last: m.clock})
	return &(*set)[len(*set)-1]
}

func (m *lruModel) delete(pc int32) {
	set := m.set(pc)
	for i := range *set {
		if (*set)[i].pc == pc {
			*set = append((*set)[:i], (*set)[i+1:]...)
			return
		}
	}
}

func (m *lruModel) reset() {
	for i := range m.sets {
		m.sets[i] = nil
	}
}

// pcPool draws n distinct PCs: small program positions, PCs at and past
// pcindex.MaxDense (which the buffer indexes in its map), and PCs near
// 2^31−1.
func pcPool(rng *rand.Rand, n int) []int32 {
	seen := map[int32]bool{pcindex.MaxDense - 1: true, pcindex.MaxDense: true, math.MaxInt32: true}
	for len(seen) < n {
		var pc int32
		switch rng.Intn(3) {
		case 0:
			pc = int32(rng.Intn(4 * n))
		case 1:
			pc = pcindex.MaxDense + int32(rng.Intn(1<<24))
		default:
			pc = math.MaxInt32 - int32(rng.Intn(1<<12))
		}
		seen[pc] = true
	}
	pool := make([]int32, 0, len(seen))
	for pc := range seen {
		pool = append(pool, pc)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// checkModel compares b's whole state with m's: Len and the capacity
// counters, each resident line's set and fields as the index finds it, the
// count of valid lines, and that the index sends no pooled PC to a line
// that does not hold it.
func checkModel(t *testing.T, b *Buffer, m *lruModel, pool []int32) {
	t.Helper()
	n := 0
	for s, set := range m.sets {
		for _, w := range set {
			n++
			l, ok := b.index.Get(w.pc)
			if !ok {
				t.Fatalf("model holds pc %d, buffer does not", w.pc)
			}
			if e := &b.lines[l]; int(l)/b.assoc != s || !e.valid || e.PC != w.pc || e.Target != w.target || e.Counter != w.counter {
				t.Fatalf("pc %d: line %d (set %d) holds pc %d target %d counter %d valid %v; model set %d, %+v",
					w.pc, l, int(l)/b.assoc, e.PC, e.Target, e.Counter, e.valid, s, w)
			}
		}
	}
	if b.Len() != n || b.Inserts() != m.inserts || b.Evictions() != m.evicts {
		t.Fatalf("Len/Inserts/Evictions = %d/%d/%d, model %d/%d/%d",
			b.Len(), b.Inserts(), b.Evictions(), n, m.inserts, m.evicts)
	}
	valid := 0
	for i := range b.lines {
		if b.lines[i].valid {
			valid++
		}
	}
	if valid != n {
		t.Fatalf("buffer has %d valid lines, model holds %d", valid, n)
	}
	for _, pc := range pool {
		if l, ok := b.index.Get(pc); ok && (!b.lines[l].valid || b.lines[l].PC != pc) {
			t.Fatalf("index sends pc %d to line %d, which holds pc %d (valid %v)",
				pc, l, b.lines[l].PC, b.lines[l].valid)
		}
	}
}

// TestBufferExactLRU runs random Insert, Lookup, Delete and Reset
// sequences against lruModel and compares the whole state after every
// operation, so any victim other than the set's least recently used line,
// or an index entry that outlives its line, fails at the operation that
// makes it.
func TestBufferExactLRU(t *testing.T) {
	for _, g := range []struct{ entries, assoc int }{
		{1, 1}, {4, 4}, {16, 4}, {256, 256}, {1024, 8},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.entries, g.assoc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries)<<16 | int64(g.assoc)))
			pool := pcPool(rng, g.entries+g.entries/4+2)
			b, m := NewBuffer(g.entries, g.assoc), newLRUModel(g.entries, g.assoc)
			for op := 0; op < 20000; op++ {
				pc := pool[rng.Intn(len(pool))]
				var e *Entry
				var w *modelLine
				switch r := rng.Intn(100); {
				case r < 45:
					got, ok := b.Lookup(pc)
					w = m.lookup(pc)
					if ok != (w != nil) {
						t.Fatalf("op %d: Lookup(%d) hit = %v, model %v", op, pc, ok, w != nil)
					}
					e = got
				case r < 90:
					e, w = b.Insert(pc), m.insert(pc)
				case r < 99 || rng.Intn(g.entries/16+1) != 0:
					// Resets are rarer in larger buffers, so they fill
					// and evict between resets.
					b.Delete(pc)
					m.delete(pc)
				default:
					b.Reset()
					m.reset()
				}
				if w != nil {
					if e.PC != w.pc || e.Target != w.target || e.Counter != w.counter {
						t.Fatalf("op %d: pc %d returned %+v, model %+v", op, pc, *e, *w)
					}
					if rng.Intn(2) == 0 {
						e.Target, e.Counter = rng.Int31(), uint8(rng.Intn(4))
						w.target, w.counter = e.Target, e.Counter
					}
				}
				checkModel(t, b, m, pool)
			}
			if b.Evictions() == 0 {
				t.Fatal("no operation evicted a line")
			}
		})
	}
}
