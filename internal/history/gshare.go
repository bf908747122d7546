package history

import (
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// GShare is McFarling's gshare: a single table of saturating counters
// indexed by the branch PC XORed with the global history register. The XOR
// spreads correlated branches across the table instead of letting the
// history bits displace PC bits.
type GShare struct {
	histLen  int
	tableLog int
	bits     int

	max       uint8
	threshold uint8
	hmask     uint32
	tmask     uint32

	hist  uint32
	ctr   []uint8
	cache targetCache
}

// NewGShare returns a gshare predictor with histLen history bits, a
// 1<<tableLog counter table and the given counter configuration, backed by
// a targetEntries/targetAssoc target cache.
func NewGShare(histLen, tableLog, bits int, threshold uint8, targetEntries, targetAssoc int) *GShare {
	mustValidate(predict.HistoryConfig{
		History: histLen, Table: tableLog,
		CounterConfig: predict.CounterConfig{Bits: bits, Threshold: &threshold},
		TargetEntries: targetEntries, TargetAssoc: targetAssoc,
	})
	return &GShare{
		histLen: histLen, tableLog: tableLog, bits: bits,
		max: uint8(1)<<bits - 1, threshold: threshold,
		hmask: lowMask(histLen), tmask: lowMask(tableLog),
		ctr:   make([]uint8, 1<<uint(tableLog)),
		cache: newTargetCache(targetEntries, targetAssoc),
	}
}

func (g *GShare) index(pc int32) uint32 {
	return (uint32(pc) ^ (g.hist & g.hmask)) & g.tmask
}

// Name implements predict.Predictor.
func (g *GShare) Name() string { return "gshare" }

// Predict implements predict.Predictor.
func (g *GShare) Predict(ev vm.BranchEvent) predict.Prediction {
	target, hit := g.cache.lookup(ev.PC)
	return prediction(!ev.Op.IsCondBranch() || g.ctr[g.index(ev.PC)] >= g.threshold, target, hit)
}

// Update implements predict.Predictor.
func (g *GShare) Update(ev vm.BranchEvent) { g.Step(ev) }

// Step implements predict.Stepper: one target-cache lookup, and one counter
// read that the outcome then trains.
func (g *GShare) Step(ev vm.BranchEvent) predict.Prediction {
	target, hit := g.cache.step(ev)
	taken := true
	if ev.Op.IsCondBranch() {
		c := &g.ctr[g.index(ev.PC)]
		taken = *c >= g.threshold
		bump(c, ev.Taken, g.max)
		g.hist = pushBit(g.hist, ev.Taken)
	}
	return prediction(taken, target, hit)
}

// Reset implements predict.Predictor.
func (g *GShare) Reset() {
	g.hist = 0
	for i := range g.ctr {
		g.ctr[i] = 0
	}
	g.cache.reset()
}

// StorageBits implements predict.StorageSized: the history register, the
// counter table and the target cache.
func (g *GShare) StorageBits() int64 {
	return int64(g.histLen) + int64(len(g.ctr))*int64(g.bits) + g.cache.storageBits()
}

// Metrics implements predict.MetricSource.
func (g *GShare) Metrics() map[string]int64 {
	m := g.cache.metrics()
	m["storage_bits"] = g.StorageBits()
	return m
}
