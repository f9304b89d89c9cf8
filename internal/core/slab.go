package core

import (
	"math"
	"sync"
)

// Columnar layer slabs. The query cost the paper measures (Table 1) is
// dominated by scoring every vertex of each accessed layer, and the
// natural [][]float64 record layout makes each of those scores pay a
// pointer dereference and a bounds-checked slice header load. A slab
// materializes one layer's vectors into a single contiguous row-major
// []float64 (row i of layer k is the vector of the layer's i-th record,
// in exactly the order the layer slice stores it), so the hot loop
// becomes a strided sequential scan the prefetcher can see through.
//
// Slabs also carry the per-layer score bounds that integrate the
// paper's Section 6 pruning idea (internal/shells) into the core
// searcher: maxNorm yields the Cauchy–Schwarz bound w·x ≤ ‖w‖·maxNorm,
// and the per-axis min/max box yields w·x ≤ Σ_j (w_j ≥ 0 ? w_j·max_j :
// w_j·min_j). Layer k+1's records lie inside the convex hull of layer
// k's, and both the norm and each coordinate are maximized over a
// convex hull at a vertex, so either bound for layer k also bounds
// every deeper layer — which is what licenses a searcher to stop the
// whole walk, not just skip one layer, once its pending candidates
// beat the bound (see Searcher.tryPrune).
//
// Slabs are derived, immutable state and the only representation a
// query reads. Build, FromLayers and FromColumnar construct them
// eagerly; a structural mutation (alloc/unalloc) drops them and the
// first query afterwards rebuilds them behind a once-latch (lazyCols),
// the idiom posLazy/recLazy use, so concurrent first readers of a
// freshly mutated index are race-free. Clones share them (nothing ever
// writes into a built slab).
type layerSlab struct {
	data    []float64 // row-major layer vectors: count×dim, layer order
	ids     []uint64  // external record IDs, parallel to rows
	pos     []int     // internal positions, parallel to rows (== layer slice)
	maxNorm float64   // max ‖x‖ over the layer's vectors
	axMin   []float64 // per-axis minimum over the layer
	axMax   []float64 // per-axis maximum over the layer
}

// newLayerSlab computes the bound metadata for a fully populated slab.
// data/ids/pos are adopted, not copied.
func newLayerSlab(data []float64, ids []uint64, pos []int, dim int) layerSlab {
	sl := layerSlab{
		data:  data,
		ids:   ids,
		pos:   pos,
		axMin: make([]float64, dim),
		axMax: make([]float64, dim),
	}
	for j := 0; j < dim; j++ {
		sl.axMin[j] = math.Inf(1)
		sl.axMax[j] = math.Inf(-1)
	}
	maxSq := 0.0
	for i := 0; i < len(ids); i++ {
		row := data[i*dim : (i+1)*dim]
		sq := 0.0
		for j, v := range row {
			sq += v * v
			if v < sl.axMin[j] {
				sl.axMin[j] = v
			}
			if v > sl.axMax[j] {
				sl.axMax[j] = v
			}
		}
		if sq > maxSq {
			maxSq = sq
		}
	}
	sl.maxNorm = math.Sqrt(maxSq)
	return sl
}

// colState is an index's complete columnar query layout: one slab per
// layer, the size of the largest (which sizes a searcher's scratch
// once), and in shell mode the per-layer bucket tables over the
// bucket-ordered slab rows (shellslab.go). Immutable once built; a
// change of mode or layering produces a new colState.
type colState struct {
	slabs    []layerSlab
	maxLayer int
	shells   []shellTable // nil unless shell mode is on
}

// newColState wraps built slabs, recording the largest layer.
func newColState(slabs []layerSlab) *colState {
	c := &colState{slabs: slabs}
	for k := range slabs {
		c.maxLayer = max(c.maxLayer, len(slabs[k].ids))
	}
	return c
}

// lazyCols defers the columnar layout of a structurally mutated index
// until its first query. A pointer field on Index (never embedded by
// value) so the whole-struct replacements the maintenance paths perform
// (*ix = *next) don't copy a sync.Once.
type lazyCols struct {
	once sync.Once
	c    *colState
}

// columns returns the index's columnar layout, building a deferred one
// exactly once. Safe under concurrent readers of a shared snapshot: the
// build only reads the layering, which no reader writes. Invariant:
// ix.cols == nil ⟺ ix.colLazy != nil.
func (ix *Index) columns() *colState {
	if ix.cols != nil {
		return ix.cols
	}
	lc := ix.colLazy
	lc.once.Do(func() { lc.c = ix.buildColumns() })
	return lc.c
}

// buildColumns copies every layer's vectors into a fresh slab and, in
// shell mode, bucket-orders the slabs and derives their tables.
func (ix *Index) buildColumns() *colState {
	pts, _ := ix.recViews()
	slabs := make([]layerSlab, len(ix.layers))
	for k, layer := range ix.layers {
		data := make([]float64, len(layer)*ix.dim)
		ids := make([]uint64, len(layer))
		pos := make([]int, len(layer))
		for i, p := range layer {
			copy(data[i*ix.dim:(i+1)*ix.dim], pts[p])
			ids[i] = ix.ids[p]
			pos[i] = p
		}
		slabs[k] = newLayerSlab(data, ids, pos, ix.dim)
	}
	c := newColState(slabs)
	if ix.shellMode {
		c = c.withShells(ix.dim)
	}
	return c
}

// BuildSlabs materializes a deferred columnar layout now rather than on
// the first query — the serving layer calls it before publishing a
// structurally mutated snapshot, so no request pays for the rebuild.
// Idempotent. Not safe to call concurrently with queries.
func (ix *Index) BuildSlabs() {
	ix.cols, ix.colLazy = ix.columns(), nil
}

// invalidateSlabs defers the columnar layout (slabs and shell tables)
// to the next query on mutation, and detaches the paging observer that
// described the old slabs' on-disk extents. Shared slabs are never
// written, so clones holding the same backing arrays are unaffected.
func (ix *Index) invalidateSlabs() {
	ix.cols, ix.colLazy = nil, &lazyCols{}
	ix.slabSrc = nil
}

// boundSlack returns the safety margin added to a layer's score bound
// so that floating-point rounding can never make pruning drop a record
// the unpruned walk would have emitted. Both the record's computed score
// and the computed bound err from their real values by at most a few
// d·ε multiples of ‖w‖·maxNorm (Σ|w_j x_j| ≤ ‖w‖‖x‖ by Cauchy–Schwarz,
// so even cancellation-heavy dot products stay within that envelope);
// 4·(d+8)·ε of it is a generous cover that still leaves the bound tight
// to ~1e-14 relative.
func boundSlack(dim int, csBound float64) float64 {
	return 4 * float64(dim+8) * (0x1p-52) * csBound
}

// scoreBound returns a sound upper bound on w·x over every record of
// this layer and every deeper layer: the smaller of the Cauchy–Schwarz
// and per-axis box bounds, inflated by the rounding slack.
func (sl *layerSlab) scoreBound(w []float64, wnorm float64) float64 {
	cs := wnorm * sl.maxNorm
	var box float64
	for j, wj := range w {
		if wj >= 0 {
			box += wj * sl.axMax[j]
		} else {
			box += wj * sl.axMin[j]
		}
	}
	b := cs
	if box < b {
		b = box
	}
	return b + boundSlack(len(w), cs)
}

// scoreSlabRange fills dst[i] = w·row_i for i in [lo, hi) over a
// row-major slab. The loop is unrolled four rows wide — four
// independent accumulators hide the multiply-add latency — while each
// individual dot product still accumulates over j in index order
// starting from zero, so every score is bit-identical to a plain
// Σ_j w_j·x_j over the record's vector (the brute-force oracle's sum).
func scoreSlabRange(dst, data, w []float64, lo, hi int) {
	dim := len(w)
	switch dim {
	case 2:
		w0, w1 := w[0], w[1]
		for i := lo; i < hi; i++ {
			v := data[i*2 : i*2+2 : i*2+2]
			var s float64
			s += w0 * v[0]
			s += w1 * v[1]
			dst[i] = s
		}
	case 3:
		w0, w1, w2 := w[0], w[1], w[2]
		for i := lo; i < hi; i++ {
			v := data[i*3 : i*3+3 : i*3+3]
			var s float64
			s += w0 * v[0]
			s += w1 * v[1]
			s += w2 * v[2]
			dst[i] = s
		}
	case 4:
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		for i := lo; i < hi; i++ {
			v := data[i*4 : i*4+4 : i*4+4]
			var s float64
			s += w0 * v[0]
			s += w1 * v[1]
			s += w2 * v[2]
			s += w3 * v[3]
			dst[i] = s
		}
	default:
		i := lo
		for ; i+4 <= hi; i += 4 {
			base := i * dim
			v0 := data[base : base+dim : base+dim]
			v1 := data[base+dim : base+2*dim : base+2*dim]
			v2 := data[base+2*dim : base+3*dim : base+3*dim]
			v3 := data[base+3*dim : base+4*dim : base+4*dim]
			var s0, s1, s2, s3 float64
			for j, wj := range w {
				s0 += wj * v0[j]
				s1 += wj * v1[j]
				s2 += wj * v2[j]
				s3 += wj * v3[j]
			}
			dst[i] = s0
			dst[i+1] = s1
			dst[i+2] = s2
			dst[i+3] = s3
		}
		for ; i < hi; i++ {
			v := data[i*dim : (i+1)*dim : (i+1)*dim]
			var s float64
			for j, wj := range w {
				s += wj * v[j]
			}
			dst[i] = s
		}
	}
}
