// Two-level BTB: the last-level-BTB organization of the servers literature
// (Micro BTB in PAPERS.md) scaled down to this repo's machines. A small L1
// answers in the fetch stage; a large L2 backs it, and an L1 miss that hits
// in L2 promotes the entry into L1. The paper's single 256-entry CBTB is
// the degenerate case where L1 is big enough to never miss — the point of
// the scheme is that capacity pressure now shows up in the accuracy A (and
// in per-level hit counters), not just in the penalty P.
package btb

import (
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// TwoLevel is a two-level counter-based BTB. Direction and target state use
// the CBTB semantics (n-bit saturating counter, threshold T, target cached
// on taken); L2 holds the master copy of every branch's state, updated on
// every executed branch, while L1 caches the recently used subset:
//
//   - Predict consults L1; on an L1 miss it consults L2, and an L2 hit
//     promotes the entry into L1 (possibly evicting an older L1 line —
//     harmless, because L2 still holds its state).
//   - Update writes the master copy in L2 (allocating on first sight, as
//     CBTB does) and syncs the L1 copy when one exists; L1 never allocates
//     on update, only on promotion.
type TwoLevel struct {
	l1, l2    *Buffer
	bits      int
	max       uint8 // 2^bits - 1
	threshold uint8

	l1Hits     int64
	l2Hits     int64 // L1-miss lookups answered by L2 (== promotions)
	l2Misses   int64 // branches unknown to both levels
	promotions int64
}

// NewTwoLevel returns a two-level BTB with the given per-level geometry and
// CBTB counter configuration. The scheme's default is a 16-entry 4-way L1
// over a 1024-entry 8-way L2 with the paper's 2-bit/T=2 counters.
func NewTwoLevel(l1Entries, l1Assoc, l2Entries, l2Assoc, bits int, threshold uint8) *TwoLevel {
	// Counter validation matches NewCBTB.
	c := NewCBTB(l2Entries, l2Assoc, bits, threshold)
	return &TwoLevel{
		l1:        NewBuffer(l1Entries, l1Assoc),
		l2:        c.buf,
		bits:      bits,
		max:       c.max,
		threshold: c.threshold,
	}
}

// Name implements predict.Predictor.
func (t *TwoLevel) Name() string { return "btb2l" }

// L1 exposes the first-level buffer for inspection in tests.
func (t *TwoLevel) L1() *Buffer { return t.l1 }

// L2 exposes the second-level buffer for inspection in tests.
func (t *TwoLevel) L2() *Buffer { return t.l2 }

// decide applies the CBTB direction rule to a resident entry.
func (t *TwoLevel) decide(e *Entry) predict.Prediction {
	if e.Counter >= t.threshold {
		return predict.Prediction{Taken: true, Target: e.Target, Hit: true}
	}
	return predict.Prediction{Taken: false, Hit: true}
}

// Predict implements predict.Predictor.
func (t *TwoLevel) Predict(ev vm.BranchEvent) predict.Prediction {
	p, _ := t.predict(ev.PC)
	return p
}

// predict answers from L1, promoting from L2 on an L1 miss, and returns
// the L1 entry it answered from (nil on a miss in both levels).
func (t *TwoLevel) predict(pc int32) (predict.Prediction, *Entry) {
	if e, ok := t.l1.Lookup(pc); ok {
		t.l1Hits++
		return t.decide(e), e
	}
	if e2, ok := t.l2.Lookup(pc); ok {
		t.l2Hits++
		t.promotions++
		e1 := t.l1.Insert(pc)
		e1.Target, e1.Counter = e2.Target, e2.Counter
		return t.decide(e1), e1
	}
	t.l2Misses++
	return predict.Prediction{Taken: false, Hit: false}, nil
}

// Update implements predict.Predictor.
func (t *TwoLevel) Update(ev vm.BranchEvent) {
	e2 := t.learn(ev)
	if e1, ok := t.l1.Lookup(ev.PC); ok {
		e1.Target, e1.Counter = e2.Target, e2.Counter
	}
}

// Step implements predict.Stepper: the L1 entry the prediction came from
// (promoted or hit) is the one Update would find and sync.
func (t *TwoLevel) Step(ev vm.BranchEvent) predict.Prediction {
	p, e1 := t.predict(ev.PC)
	e2 := t.learn(ev)
	if e1 != nil {
		e1.Target, e1.Counter = e2.Target, e2.Counter
	}
	return p
}

// learn applies ev's outcome to the master copy in L2, allocating it with
// CBTB's initialization on first sight, and returns it.
func (t *TwoLevel) learn(ev vm.BranchEvent) *Entry {
	e2, ok := t.l2.Lookup(ev.PC)
	if !ok {
		e2 = t.l2.Insert(ev.PC)
		e2.Target = -1
		if ev.Taken {
			e2.Counter = t.threshold
			e2.Target = ev.Target
		} else if t.threshold > 0 {
			e2.Counter = t.threshold - 1
		}
	} else if ev.Taken {
		if e2.Counter < t.max {
			e2.Counter++
		}
		e2.Target = ev.Target
	} else if e2.Counter > 0 {
		e2.Counter--
	}
	return e2
}

// Reset implements predict.Predictor.
func (t *TwoLevel) Reset() {
	t.l1.Reset()
	t.l2.Reset()
}

// Metrics implements predict.MetricSource: per-level hit and capacity
// counters, prefixed l1_/l2_.
func (t *TwoLevel) Metrics() map[string]int64 {
	m := map[string]int64{
		"l1_hits":    t.l1Hits,
		"l2_hits":    t.l2Hits,
		"l2_misses":  t.l2Misses,
		"promotions": t.promotions,
	}
	for k, v := range t.l1.metrics() {
		m["l1_"+k] = v
	}
	for k, v := range t.l2.metrics() {
		m["l2_"+k] = v
	}
	m["storage_bits"] = t.StorageBits()
	return m
}

// StorageBits implements predict.StorageSized: both levels' lines, each
// carrying a counter copy.
func (t *TwoLevel) StorageBits() int64 {
	perEntry := int64(t.bits)
	return t.l1.storageBits() + int64(t.l1.Entries())*perEntry +
		t.l2.storageBits() + int64(t.l2.Entries())*perEntry
}
