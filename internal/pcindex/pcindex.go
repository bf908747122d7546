// Package pcindex maps branch PCs to small indices: a site of a recorded
// trace, a line of a branch-target buffer. Branch PCs are small
// nonnegative program positions, so a PC below MaxDense indexes a slice
// directly, a bounds check per lookup instead of a hash on the
// simulator's hottest paths. Any other PC, negative included, as a hostile
// trace file may name, goes to a map, so it costs one map entry, never an
// allocation the size of the PC.
package pcindex

// MaxDense bounds the PCs an Index holds in its slice: ten times the
// largest registered program (btb-stress's FS binary, about 11.5K
// positions).
const MaxDense = 1 << 17

// Index maps PCs to indices below 2^32−1. The zero value is empty.
type Index struct {
	dense []uint32         // pc -> index + 1; 0 while pc is absent
	far   map[int32]uint32 // pc -> index, for PCs dense does not hold
}

// Get returns pc's index, and whether pc has one.
func (x *Index) Get(pc int32) (uint32, bool) {
	if uint32(pc) < uint32(len(x.dense)) {
		v := x.dense[pc]
		return v - 1, v != 0
	}
	v, ok := x.far[pc]
	return v, ok
}

// Put records v as pc's index. A PC below MaxDense grows the slice to it.
func (x *Index) Put(pc int32, v uint32) {
	if uint32(pc) >= MaxDense {
		if x.far == nil {
			x.far = map[int32]uint32{}
		}
		x.far[pc] = v
		return
	}
	if n := int(pc) + 1; n > len(x.dense) {
		x.dense = append(x.dense, make([]uint32, n-len(x.dense))...)
	}
	x.dense[pc] = v + 1
}

// Delete forgets pc's index.
func (x *Index) Delete(pc int32) {
	if uint32(pc) < uint32(len(x.dense)) {
		x.dense[pc] = 0
		return
	}
	delete(x.far, pc)
}
