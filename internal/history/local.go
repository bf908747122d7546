package history

import (
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// Local is a two-level local-history predictor (Yeh/Patt PAp scaled to a
// shared pattern table): a direct-mapped, untagged table of per-site
// history registers, each indexing a shared table of saturating counters.
// Sites that alias a history register share — and corrupt — each other's
// patterns, which is the capacity effect the Sites knob sweeps.
type Local struct {
	histLen  int
	siteLog  int
	tableLog int
	bits     int

	max       uint8
	threshold uint8
	hmask     uint32
	smask     uint32
	tmask     uint32

	bht   []uint32 // per-site history registers
	pht   []uint8  // shared pattern table of counters
	cache targetCache
}

// NewLocal returns a local predictor with 1<<siteLog history registers of
// histLen bits and a 1<<tableLog pattern table.
func NewLocal(histLen, siteLog, tableLog, bits int, threshold uint8, targetEntries, targetAssoc int) *Local {
	mustValidate(predict.HistoryConfig{
		History: histLen, Sites: siteLog, Table: tableLog,
		CounterConfig: predict.CounterConfig{Bits: bits, Threshold: &threshold},
		TargetEntries: targetEntries, TargetAssoc: targetAssoc,
	})
	return &Local{
		histLen: histLen, siteLog: siteLog, tableLog: tableLog, bits: bits,
		max: uint8(1)<<bits - 1, threshold: threshold,
		hmask: lowMask(histLen), smask: lowMask(siteLog), tmask: lowMask(tableLog),
		bht:   make([]uint32, 1<<uint(siteLog)),
		pht:   make([]uint8, 1<<uint(tableLog)),
		cache: newTargetCache(targetEntries, targetAssoc),
	}
}

func (l *Local) site(pc int32) uint32 { return uint32(pc) & l.smask }

// index is the pattern-table slot a history register selects.
func (l *Local) index(h uint32) uint32 { return h & l.hmask & l.tmask }

// Name implements predict.Predictor.
func (l *Local) Name() string { return "local" }

// Predict implements predict.Predictor.
func (l *Local) Predict(ev vm.BranchEvent) predict.Prediction {
	target, hit := l.cache.lookup(ev.PC)
	return prediction(!ev.Op.IsCondBranch() || l.pht[l.index(l.bht[l.site(ev.PC)])] >= l.threshold, target, hit)
}

// Update implements predict.Predictor.
func (l *Local) Update(ev vm.BranchEvent) { l.Step(ev) }

// Step implements predict.Stepper: one target-cache lookup, and one
// history and counter read that the outcome then trains.
func (l *Local) Step(ev vm.BranchEvent) predict.Prediction {
	target, hit := l.cache.step(ev)
	taken := true
	if ev.Op.IsCondBranch() {
		h := &l.bht[l.site(ev.PC)]
		c := &l.pht[l.index(*h)]
		taken = *c >= l.threshold
		bump(c, ev.Taken, l.max)
		*h = pushBit(*h, ev.Taken)
	}
	return prediction(taken, target, hit)
}

// Reset implements predict.Predictor.
func (l *Local) Reset() {
	for i := range l.bht {
		l.bht[i] = 0
	}
	for i := range l.pht {
		l.pht[i] = 0
	}
	l.cache.reset()
}

// StorageBits implements predict.StorageSized: the history registers, the
// pattern table and the target cache.
func (l *Local) StorageBits() int64 {
	return int64(len(l.bht))*int64(l.histLen) + int64(len(l.pht))*int64(l.bits) + l.cache.storageBits()
}

// Metrics implements predict.MetricSource.
func (l *Local) Metrics() map[string]int64 {
	m := l.cache.metrics()
	m["storage_bits"] = l.StorageBits()
	return m
}
