// Package history implements the post-1989 history-based direction
// predictors the ROADMAP asks to compare against the Forward Semantic:
// gshare (global history XOR-indexed counter table), a two-level local
// predictor (per-site history indexing a pattern table, Yeh/Patt style), a
// perceptron predictor (signed weight vectors dotted with global history)
// and TAGE (tagged geometric history lengths).
//
// All four predict only the direction; the target side is a shared
// CBTB-style target cache (an associative buffer allocated on every
// executed branch, target filled on the first taken execution). A branch
// predicted taken with no cached target predicts target -1 and is scored
// wrong — exactly the honesty rule the paper's CBTB follows. Unconditional
// branches bypass the direction structures: they are always predicted
// taken, to the cached target. Histories record conditional outcomes only.
package history

import (
	"branchcost/internal/btb"
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// targetEntryBits mirrors btb's per-line storage accounting: a 32-bit tag,
// a 32-bit target and a valid bit.
const targetEntryBits = 32 + 32 + 1

// targetCache is the shared target side: a btb.Buffer with CBTB-style
// allocation. Every executed branch allocates an entry (target -1 until the
// branch is first seen taken); every taken execution refreshes the target.
type targetCache struct{ buf *btb.Buffer }

func newTargetCache(entries, assoc int) targetCache {
	return targetCache{buf: btb.NewBuffer(entries, assoc)}
}

// lookup returns the cached target (or -1) and whether the branch was
// resident. The lookup always happens — also for branches the direction
// side predicts not-taken — so the cache's LRU clock advances identically
// on the production and oracle sides.
func (t targetCache) lookup(pc int32) (int32, bool) {
	if e, ok := t.buf.Lookup(pc); ok {
		return e.Target, true
	}
	return -1, false
}

// step is lookup and then the update for ev, on one lookup: it allocates
// on first sight and caches the target of taken branches.
func (t targetCache) step(ev vm.BranchEvent) (int32, bool) {
	e, ok := t.buf.Lookup(ev.PC)
	target := int32(-1)
	if ok {
		target = e.Target
	} else {
		e = t.buf.Insert(ev.PC)
		e.Target = -1
	}
	if ev.Taken {
		e.Target = ev.Target
	}
	return target, ok
}

func (t targetCache) reset() { t.buf.Reset() }

func (t targetCache) storageBits() int64 {
	return int64(t.buf.Entries()) * targetEntryBits
}

func (t targetCache) metrics() map[string]int64 {
	return map[string]int64{
		"inserts":   t.buf.Inserts(),
		"evictions": t.buf.Evictions(),
		"occupancy": int64(t.buf.Len()),
	}
}

// mustValidate panics on a configuration its type's Validate rejects: the
// evaluation layers validate configs before construction, so only a bug
// reaches a constructor with one.
func mustValidate(c interface{ Validate() error }) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
}

// prediction is the answer of a direction predictor backed by the target
// cache: a taken prediction goes to the cached target (-1 when none).
func prediction(taken bool, target int32, hit bool) predict.Prediction {
	if taken {
		return predict.Prediction{Taken: true, Target: target, Hit: hit}
	}
	return predict.Prediction{Taken: false, Hit: hit}
}

// bump moves a saturating counter one step toward the outcome.
func bump(c *uint8, taken bool, max uint8) {
	if taken {
		if *c < max {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// pushBit shifts outcome b into a history register (bit 0 = newest).
func pushBit(hist uint32, taken bool) uint32 {
	hist <<= 1
	if taken {
		hist |= 1
	}
	return hist
}

// lowMask returns a mask of the low n bits (n in [1,32]).
func lowMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return uint32(1)<<uint(n) - 1
}
