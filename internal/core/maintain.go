package core

import (
	"errors"
	"fmt"

	"repro/internal/hull"
)

// Maintenance (paper Section 3.4). Insertion and deletion cascade
// through the layered hull: adding a point outside layer k's hull can
// expel existing vertices of layer k inwards; removing a vertex of layer
// k can promote vertices of layer k+1 outwards. Both follow the paper's
// pseudocode: repeatedly merge the carried set with the next layer,
// recompute the hull, keep its vertices, and carry the rest deeper.
//
// As the paper notes, maintenance is far more expensive than querying
// (each step is a hull construction), so batches are not cascaded: a
// batch goes through the delta buffer and a fold re-peels the live
// record set (delta.go). The cascade serves single records only, the
// one case where it is cheaper than a fresh peel.

// computeHull is the hull constructor used by construction, folds and
// every maintenance cascade. A package variable so tests can inject hull
// failures and exercise the rollback paths; production code never
// reassigns it.
var computeHull = hull.Compute

// hullOpts are the hull options every core computation shares.
func (ix *Index) hullOpts() hull.Options {
	return hull.Options{Tol: ix.tol, Seed: ix.seed, Workers: ix.workers}
}

// ErrDuplicateID is returned by Insert when the ID already exists.
var ErrDuplicateID = errors.New("core: duplicate record ID")

// ErrNotFound is returned by Delete/Update for an unknown ID.
var ErrNotFound = errors.New("core: record not found")

// Insert adds one record. The layer it belongs to is located by binary
// search over the nested layer hulls — r is inside the hull of layer k-1
// and outside the hull of layer k — then the insertion cascade runs from
// that layer inwards.
func (ix *Index) Insert(rec Record) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	if len(rec.Vector) != ix.dim {
		return fmt.Errorf("core: insert dimension %d, want %d", len(rec.Vector), ix.dim)
	}
	if _, dup := ix.posOf[rec.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, rec.ID)
	}
	pos := ix.alloc(rec)
	k, err := ix.locateLayer(rec.Vector)
	if err != nil {
		ix.unalloc(rec.ID, pos)
		return err
	}
	if err := ix.cascade(k, []int{pos}); err != nil {
		ix.unalloc(rec.ID, pos)
		return err
	}
	return nil
}

// Delete removes the record with the given ID and repairs the layering
// with the deletion cascade.
func (ix *Index) Delete(id uint64) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	pos, ok := ix.posOf[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	k := ix.layerOf[pos]
	// S = L_k − {r}; the cascade merges S with layer k+1 and re-peels.
	carry := make([]int, 0, len(ix.layers[k])-1)
	for _, p := range ix.layers[k] {
		if p != pos {
			carry = append(carry, p)
		}
	}
	ix.unalloc(id, pos)
	// Drop layer k itself; the cascade re-peels carry against the old
	// inner layers.
	rest := make([][]int, len(ix.layers)-k-1)
	copy(rest, ix.layers[k+1:])
	ix.layers = ix.layers[:k]
	return ix.resolve(carry, rest)
}

// Update replaces the vector of an existing record (delete + insert, as
// the paper prescribes). Update is atomic: either the record ends up
// with the new vector and a consistent layering, or — when a hull
// cascade of the delete or reinsert fails — the index is restored to
// its exact pre-update state and the error returned. Without the
// restore a failed reinsert would silently lose the record (and a
// cascade failure leaves the layer list truncated mid-repair), so the
// rollback works from a snapshot taken up front rather than trying to
// re-insert into a possibly-torn index.
func (ix *Index) Update(id uint64, vector []float64) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	if len(vector) != ix.dim {
		return fmt.Errorf("core: update dimension %d, want %d", len(vector), ix.dim)
	}
	if _, ok := ix.posOf[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	// Clone is O(n) positions (attribute vectors are shared), which the
	// two hull cascades below dominate.
	backup := ix.Clone()
	err := ix.Delete(id)
	if err == nil {
		err = ix.Insert(Record{ID: id, Vector: vector})
	}
	if err != nil {
		*ix = *backup
		return err
	}
	return nil
}

// alloc stores a record and returns its position. Any mutation defers
// the columnar scoring slabs to the next query (they are derived from a
// layer partition this mutation is about to change), and detaches the
// hierarchical compactor (its per-cluster record sets no longer
// describe the base).
func (ix *Index) alloc(rec Record) int {
	ix.invalidateSlabs()
	ix.cc = nil
	vec := make([]float64, len(rec.Vector))
	copy(vec, rec.Vector)
	var pos int
	if n := len(ix.free); n > 0 {
		pos = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.pts[pos] = vec
		ix.ids[pos] = rec.ID
		ix.layerOf[pos] = -1
	} else {
		pos = len(ix.pts)
		ix.pts = append(ix.pts, vec)
		ix.ids = append(ix.ids, rec.ID)
		ix.layerOf = append(ix.layerOf, -1)
	}
	ix.posOf[rec.ID] = pos
	return pos
}

// unalloc releases a position (used on insert failure and by Delete).
func (ix *Index) unalloc(id uint64, pos int) {
	ix.invalidateSlabs()
	ix.cc = nil
	delete(ix.posOf, id)
	ix.pts[pos] = nil
	ix.layerOf[pos] = -1
	ix.free = append(ix.free, pos)
}

// locateLayer finds the outermost layer whose hull does NOT contain v —
// the layer v must join. Containment is monotone (layer k's hull
// geometrically encloses layer k+1's), so binary search applies, as the
// paper suggests. If every layer's hull contains v the record starts a
// cascade below the innermost layer (possibly becoming a new layer).
func (ix *Index) locateLayer(v []float64) (int, error) {
	lo, hi := 0, len(ix.layers) // invariant: hulls 0..lo-1 contain v
	for lo < hi {
		mid := (lo + hi) / 2
		h, err := ix.layerHull(mid)
		if err != nil {
			return 0, err
		}
		if h.Contains(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// layerHull computes the hull of layer k's points. Layer members are by
// construction the hull vertices of everything at-or-below the layer, so
// the hull of the layer alone has the same boundary.
func (ix *Index) layerHull(k int) (*hull.Hull, error) {
	h, err := computeHull(ix.pts, ix.layers[k], ix.hullOpts())
	if err != nil {
		return nil, fmt.Errorf("core: hull of layer %d: %w", k, err)
	}
	return h, nil
}

// cascade inserts the carried positions starting at layer k, following
// the paper's insertion pseudocode: merge carry with layer k, keep the
// hull vertices as the new layer k, carry the remainder to layer k+1.
func (ix *Index) cascade(k int, carry []int) error {
	// Copy the suffix: resolve re-appends onto ix.layers and would
	// otherwise clobber the very slots rest still points at.
	rest := make([][]int, len(ix.layers)-k)
	copy(rest, ix.layers[k:])
	ix.layers = ix.layers[:k]
	return ix.resolve(carry, rest)
}

// resolve re-peels: pool = carry ∪ next old layer; the pool's hull
// vertices become the next new layer; non-vertices are carried deeper.
// When the carry empties, the untouched old layers are still valid (they
// are enclosed by the layer just emitted) and are reattached as-is.
func (ix *Index) resolve(carry []int, rest [][]int) error {
	for {
		if len(carry) == 0 {
			for _, l := range rest {
				ix.appendLayer(l)
			}
			return nil
		}
		pool := carry
		if len(rest) > 0 {
			pool = make([]int, 0, len(carry)+len(rest[0]))
			pool = append(pool, carry...)
			pool = append(pool, rest[0]...)
			rest = rest[1:]
		}
		h, err := computeHull(ix.pts, pool, ix.hullOpts())
		if err != nil {
			return fmt.Errorf("core: maintenance hull: %w", err)
		}
		if h.Joggled() {
			ix.joggled = true
		}
		ix.appendLayer(h.Vertices)
		inVerts := make(map[int]bool, len(h.Vertices))
		for _, v := range h.Vertices {
			inVerts[v] = true
		}
		next := make([]int, 0, len(pool)-len(h.Vertices))
		for _, p := range pool {
			if !inVerts[p] {
				next = append(next, p)
			}
		}
		carry = next
	}
}
