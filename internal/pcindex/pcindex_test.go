package pcindex

import (
	"math"
	"testing"
)

// TestIndex puts, gets and deletes PCs on both sides of MaxDense, negative
// and near 2^31−1 included, and checks that only PCs below MaxDense grow
// the slice, and only up to the largest of them.
func TestIndex(t *testing.T) {
	pcs := []int32{0, 5, MaxDense - 1, MaxDense, 1 << 24, math.MaxInt32, -1, math.MinInt32}
	var x Index
	for _, pc := range pcs {
		if _, ok := x.Get(pc); ok {
			t.Fatalf("empty index has pc %d", pc)
		}
	}
	for i, pc := range pcs {
		x.Put(pc, uint32(i))
	}
	if len(x.dense) != MaxDense || len(x.far) != 5 {
		t.Fatalf("slice holds %d PCs and map %d, want %d and 5", len(x.dense), len(x.far), MaxDense)
	}
	for i, pc := range pcs {
		if v, ok := x.Get(pc); !ok || v != uint32(i) {
			t.Fatalf("pc %d = %d, %v; want %d", pc, v, ok, i)
		}
	}
	for _, pc := range []int32{1, MaxDense - 2, MaxDense + 1, math.MaxInt32 - 1, -2} {
		if _, ok := x.Get(pc); ok {
			t.Fatalf("pc %d was never put but is present", pc)
		}
	}
	for i, pc := range pcs {
		if i%2 == 0 {
			x.Delete(pc)
		}
	}
	for i, pc := range pcs {
		if _, ok := x.Get(pc); ok != (i%2 == 1) {
			t.Fatalf("after deleting the even puts, pc %d present = %v", pc, ok)
		}
	}
}
