package history

import (
	"math"

	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// TAGE is Seznec/Michaud's TAgged GEometric predictor, scaled down: a
// bimodal base table plus nTables tagged tables whose history lengths grow
// geometrically from MinHist to MaxHist. The longest-history tag match
// provides the prediction; a usefulness counter per entry arbitrates
// allocation on mispredictions. Folded-history registers compress each
// table's history window into index- and tag-width checksums and are
// updated incrementally as bits enter and leave the window.
type TAGE struct {
	nTables  int
	baseLog  int
	tableLog int
	tagBits  int
	bits     int
	uBits    int
	minHist  int
	maxHist  int

	threshold uint8 // 1 << (bits-1), the counter midpoint
	max       uint8
	umax      uint8
	tmask     uint32
	tagmask   uint32
	bmask     uint32

	lens   []int // per-table history lengths, geometric
	base   []uint8
	tables [][]tageEntry

	hist     uint64   // global history, bit 0 = newest, up to maxHist bits live
	foldIdx  []uint32 // folded history at index width (tableLog)
	foldTag1 []uint32 // folded history at tag width (tagBits)
	foldTag2 []uint32 // folded history at tagBits-1, doubled into the tag
	folds    []tageFolds

	// Per-branch scratch filled by scan; valid until the next scan.
	idxS []uint32
	tagS []uint32

	cache targetCache
}

// tageFolds holds what push needs of one table, fixed by its history
// length: the position of the bit leaving the window and the three folds.
type tageFolds struct {
	oldest          uint // L-1
	idx, tag1, tag2 folder
}

// folder folds a history window of length L into a w-bit register: the
// window's oldest bit sits at position (L-1) mod w.
type folder struct {
	oldestAt, top uint // (L-1) mod w, and w-1
	mask          uint32
}

func newFolder(L, w int) folder {
	return folder{oldestAt: uint((L - 1) % w), top: uint(w - 1), mask: lowMask(w)}
}

// step advances register f: remove the evicted oldest bit, rotate every
// surviving bit one position up, insert the new bit b at position 0.
func (fo *folder) step(f, evict, b uint32) uint32 {
	f ^= evict << fo.oldestAt
	f = ((f << 1) | (f >> fo.top)) & fo.mask
	return f ^ b
}

type tageEntry struct {
	tag uint16
	ctr uint8
	u   uint8
}

// GeometricLengths returns n history lengths growing geometrically from
// minHist to maxHist (forced strictly increasing until the maxHist cap).
// Exported so the oracle twin derives the identical series independently.
func GeometricLengths(n, minHist, maxHist int) []int {
	lens := make([]int, n)
	for i := range lens {
		if i == 0 || n == 1 {
			lens[i] = minHist
			continue
		}
		r := math.Pow(float64(maxHist)/float64(minHist), float64(i)/float64(n-1))
		l := int(math.Round(float64(minHist) * r))
		if l <= lens[i-1] {
			l = lens[i-1] + 1
		}
		if l > maxHist {
			l = maxHist
		}
		lens[i] = l
	}
	return lens
}

// NewTAGE returns a TAGE predictor with a 1<<baseLog bimodal base and
// nTables tagged tables of 1<<tableLog entries. The direction threshold is
// the counter midpoint; base counters initialize to weakly not-taken.
func NewTAGE(nTables, baseLog, tableLog, tagBits, minHist, maxHist, bits, uBits int, targetEntries, targetAssoc int) *TAGE {
	mustValidate(predict.TAGEConfig{
		Tables: nTables, Base: baseLog, Table: tableLog, TagBits: tagBits,
		MinHist: minHist, MaxHist: maxHist, Bits: bits, UBits: uBits,
		TargetEntries: targetEntries, TargetAssoc: targetAssoc,
	})
	tables := make([][]tageEntry, nTables)
	for i := range tables {
		tables[i] = make([]tageEntry, 1<<uint(tableLog))
	}
	t := &TAGE{
		nTables: nTables, baseLog: baseLog, tableLog: tableLog,
		tagBits: tagBits, bits: bits, uBits: uBits,
		minHist: minHist, maxHist: maxHist,
		threshold: uint8(1) << uint(bits-1),
		max:       uint8(1)<<bits - 1,
		umax:      uint8(1)<<uint(uBits) - 1,
		tmask:     lowMask(tableLog),
		tagmask:   lowMask(tagBits),
		bmask:     lowMask(baseLog),
		lens:      GeometricLengths(nTables, minHist, maxHist),
		base:      make([]uint8, 1<<uint(baseLog)),
		tables:    tables,
		foldIdx:   make([]uint32, nTables),
		foldTag1:  make([]uint32, nTables),
		foldTag2:  make([]uint32, nTables),
		idxS:      make([]uint32, nTables),
		tagS:      make([]uint32, nTables),
		cache:     newTargetCache(targetEntries, targetAssoc),
	}
	for i := range t.base {
		t.base[i] = t.threshold - 1 // weakly not-taken
	}
	t.folds = make([]tageFolds, nTables)
	for i, L := range t.lens {
		t.folds[i] = tageFolds{
			oldest: uint(L - 1),
			idx:    newFolder(L, tableLog),
			tag1:   newFolder(L, tagBits),
			tag2:   newFolder(L, tagBits-1),
		}
	}
	return t
}

func (t *TAGE) index(pc int32, i int) uint32 {
	return (uint32(pc) ^ uint32(pc)>>uint(t.tableLog) ^ t.foldIdx[i]) & t.tmask
}

func (t *TAGE) tag(pc int32, i int) uint32 {
	return (uint32(pc) ^ t.foldTag1[i] ^ (t.foldTag2[i] << 1)) & t.tagmask
}

// scan fills the per-table index/tag scratch and returns the provider (the
// longest-history tag match) and the alternate (the next match), -1 when
// absent.
func (t *TAGE) scan(pc int32) (provider, alt int) {
	provider, alt = -1, -1
	for i := 0; i < t.nTables; i++ {
		t.idxS[i] = t.index(pc, i)
		t.tagS[i] = t.tag(pc, i)
	}
	for i := t.nTables - 1; i >= 0; i-- {
		if t.tables[i][t.idxS[i]].tag == uint16(t.tagS[i]) {
			if provider < 0 {
				provider = i
			} else {
				alt = i
				break
			}
		}
	}
	return provider, alt
}

// dir is the direction table i predicts for pc after a scan, and the base
// table's when i is -1.
func (t *TAGE) dir(i int, pc int32) bool {
	if i >= 0 {
		return t.tables[i][t.idxS[i]].ctr >= t.threshold
	}
	return t.base[uint32(pc)&t.bmask] >= t.threshold
}

// Name implements predict.Predictor.
func (t *TAGE) Name() string { return "tage" }

// Predict implements predict.Predictor.
func (t *TAGE) Predict(ev vm.BranchEvent) predict.Prediction {
	target, hit := t.cache.lookup(ev.PC)
	taken := true
	if ev.Op.IsCondBranch() {
		provider, _ := t.scan(ev.PC)
		taken = t.dir(provider, ev.PC)
	}
	return prediction(taken, target, hit)
}

// Update implements predict.Predictor.
func (t *TAGE) Update(ev vm.BranchEvent) { t.Step(ev) }

// Step implements predict.Stepper: one target-cache lookup and one scan of
// the tagged tables, which both predicts and trains.
func (t *TAGE) Step(ev vm.BranchEvent) predict.Prediction {
	target, hit := t.cache.step(ev)
	taken := true
	if ev.Op.IsCondBranch() {
		taken = t.train(ev.PC, ev.Taken)
		t.push(ev.Taken)
	}
	return prediction(taken, target, hit)
}

// train scans the tables for pc and applies the TAGE update rule for one
// conditional outcome: provider counter update, usefulness update when
// provider and alternate disagree, and allocation into a longer table on a
// misprediction. It returns the prediction the scan made, as Predict would.
func (t *TAGE) train(pc int32, taken bool) bool {
	provider, alt := t.scan(pc)
	altPred := t.dir(alt, pc)
	pred := t.dir(provider, pc)
	if provider >= 0 {
		e := &t.tables[provider][t.idxS[provider]]
		bump(&e.ctr, taken, t.max)
		// Usefulness tracks only decisions where the provider mattered.
		if pred != altPred {
			bump(&e.u, pred == taken, t.umax)
		}
	} else {
		bump(&t.base[uint32(pc)&t.bmask], taken, t.max)
	}
	if pred != taken && provider < t.nTables-1 {
		// Mispredicted: allocate in the first longer table whose victim is
		// useless; if none, age every candidate so one frees up soon.
		alloc := -1
		for j := provider + 1; j < t.nTables; j++ {
			if t.tables[j][t.idxS[j]].u == 0 {
				alloc = j
				break
			}
		}
		if alloc >= 0 {
			e := &t.tables[alloc][t.idxS[alloc]]
			e.tag = uint16(t.tagS[alloc])
			if taken {
				e.ctr = t.threshold // weakly taken
			} else {
				e.ctr = t.threshold - 1 // weakly not-taken
			}
			e.u = 0
		} else {
			for j := provider + 1; j < t.nTables; j++ {
				if e := &t.tables[j][t.idxS[j]]; e.u > 0 {
					e.u--
				}
			}
		}
	}
	return pred
}

// push shifts one conditional outcome into the global history, updating
// every folded register incrementally.
func (t *TAGE) push(taken bool) {
	var b uint32
	if taken {
		b = 1
	}
	for i := range t.folds {
		fo := &t.folds[i]
		evict := uint32(t.hist>>fo.oldest) & 1
		t.foldIdx[i] = fo.idx.step(t.foldIdx[i], evict, b)
		t.foldTag1[i] = fo.tag1.step(t.foldTag1[i], evict, b)
		t.foldTag2[i] = fo.tag2.step(t.foldTag2[i], evict, b)
	}
	t.hist <<= 1
	t.hist |= uint64(b)
}

// Reset implements predict.Predictor.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = t.threshold - 1
	}
	for _, tbl := range t.tables {
		for j := range tbl {
			tbl[j] = tageEntry{}
		}
	}
	t.hist = 0
	for i := 0; i < t.nTables; i++ {
		t.foldIdx[i], t.foldTag1[i], t.foldTag2[i] = 0, 0, 0
	}
	t.cache.reset()
}

// StorageBits implements predict.StorageSized: the base table, the tagged
// tables (counter + tag + usefulness per entry), the history register and
// the target cache.
func (t *TAGE) StorageBits() int64 {
	perTagged := int64(t.bits + t.tagBits + t.uBits)
	return int64(len(t.base))*int64(t.bits) +
		int64(t.nTables)*int64(1<<uint(t.tableLog))*perTagged +
		int64(t.maxHist) +
		t.cache.storageBits()
}

// Metrics implements predict.MetricSource.
func (t *TAGE) Metrics() map[string]int64 {
	m := t.cache.metrics()
	m["storage_bits"] = t.StorageBits()
	return m
}
