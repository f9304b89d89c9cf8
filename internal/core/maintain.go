package core

import (
	"errors"
	"fmt"
	"sort"

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
// (each step is a hull construction); batch maintenance is advisable in
// practice and is provided by InsertBatch.

// computeHull is the hull constructor used by construction and every
// maintenance cascade. A package variable so tests can inject hull
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

// InsertBatch adds many records with one cascade per affected outer
// layer group. It currently locates each record individually but shares
// the cascade, which dominates; for bulk loads prefer rebuilding.
func (ix *Index) InsertBatch(recs []Record) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	// Records must be grouped by target layer so one cascade handles all
	// of them; locating first, before any mutation, keeps the search
	// consistent.
	group := make(map[int][]Record)
	seen := make(map[uint64]bool, len(recs))
	minK := -1
	for _, r := range recs {
		if len(r.Vector) != ix.dim {
			return fmt.Errorf("core: insert dimension %d, want %d", len(r.Vector), ix.dim)
		}
		// Check against the index AND the batch itself: two records
		// sharing an ID within one batch would otherwise both alloc, and
		// the posOf overwrite would leave an undeletable ghost.
		if _, dup := ix.posOf[r.ID]; dup || seen[r.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
		}
		seen[r.ID] = true
		k, err := ix.locateLayer(r.Vector)
		if err != nil {
			return err
		}
		group[k] = append(group[k], r)
		if minK < 0 || k < minK {
			minK = k
		}
	}
	if minK < 0 {
		return nil
	}
	// One cascade from the outermost affected layer carrying every new
	// record placed at or below it is correct: the cascade re-peels all
	// deeper layers anyway.
	var carry []int
	ks := make([]int, 0, len(group))
	for k := range group {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		for _, r := range group[k] {
			carry = append(carry, ix.alloc(r))
		}
	}
	return ix.cascade(minK, carry)
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

// DeleteBatch removes several records with one cascade from the
// outermost affected layer — the batch maintenance the paper recommends
// over per-record cascades. Unknown IDs fail the whole batch before any
// mutation.
func (ix *Index) DeleteBatch(ids []uint64) error {
	if err := ix.mutable(); err != nil {
		return err
	}
	ix.materializePosOf()
	ix.materializeRecs()
	if len(ids) == 0 {
		return nil
	}
	victims := make(map[int]bool, len(ids))
	minK := -1
	for _, id := range ids {
		pos, ok := ix.posOf[id]
		if !ok {
			return fmt.Errorf("%w: %d", ErrNotFound, id)
		}
		if victims[pos] {
			return fmt.Errorf("core: duplicate ID %d in batch", id)
		}
		victims[pos] = true
		if k := ix.layerOf[pos]; minK < 0 || k < minK {
			minK = k
		}
	}
	// deepest original depth holding a victim: the cascade may only
	// reattach untouched inner layers once it has peeled past it AND the
	// last consumed layer was intact — removing a vertex from layer j
	// can expose layer j+1 points, so a victim layer never justifies an
	// early stop even if the carry empties there.
	deepest := minK
	for pos := range victims {
		if k := ix.layerOf[pos]; k > deepest {
			deepest = k
		}
	}
	for _, id := range ids {
		pos := ix.posOf[id]
		ix.unalloc(id, pos)
	}
	rest := make([][]int, len(ix.layers)-minK)
	copy(rest, ix.layers[minK:])
	ix.layers = ix.layers[:minK]

	// The cascade generalizes the paper's single-record rule: removing a
	// vertex from layer j can expose points of layer j+1, so a pool
	// that absorbed a victim layer must also absorb the layer after it
	// before its hull may be emitted — recursively, until the last
	// absorbed layer is intact. Once a pool ending in an intact layer
	// empties the carry and no victims remain deeper, the untouched
	// suffix reattaches unchanged.
	var carry []int
	i := 0
	for i < len(rest) {
		pool := append([]int(nil), carry...)
		lastHadVictims := false
		for {
			lastHadVictims = false
			for _, p := range rest[i] {
				if victims[p] {
					lastHadVictims = true
				} else {
					pool = append(pool, p)
				}
			}
			i++
			if !lastHadVictims || i >= len(rest) {
				break
			}
		}
		if len(pool) == 0 {
			carry = nil
			continue
		}
		h, err := computeHull(ix.pts, pool, ix.hullOpts())
		if err != nil {
			return fmt.Errorf("core: batch delete hull: %w", err)
		}
		if h.Joggled() {
			ix.joggled = true
		}
		ix.appendLayer(h.Vertices)
		inVerts := make(map[int]bool, len(h.Vertices))
		for _, v := range h.Vertices {
			inVerts[v] = true
		}
		next := pool[:0]
		for _, p := range pool {
			if !inVerts[p] {
				next = append(next, p)
			}
		}
		carry = next
		if len(carry) == 0 && !lastHadVictims && minK+i > deepest {
			for _, l := range rest[i:] {
				ix.appendLayer(l)
			}
			return nil
		}
	}
	// Leftovers past the innermost layer peel into fresh layers.
	return ix.resolve(carry, nil)
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
