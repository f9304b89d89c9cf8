package core

import (
	"fmt"
	"sort"

	"repro/internal/topk"
)

// LSM-style incremental write path. The paper's Section 3.4 cascade
// re-hulls every affected layer per mutation, so publish cost grows
// with the index. The delta buffer decouples acknowledgement from
// re-layering: mutations land in a small unlayered side structure —
// inserts as brute-force-scored records, deletes as tombstones over
// the layered base — and every query merges the delta into its result
// stream on the index's total order (score descending, ID ascending).
// Answers are bit-identical to a full rebuild while the cost of
// applying a mutation batch is O(delta), independent of the corpus. A
// fold (Compact/CompactedClone) re-layers by peeling the live record
// set from scratch — the whole index, or through an attached
// ClusterCompactor only the clusters the delta touched — once the
// buffer crosses a size threshold; the serving layer runs that in the
// background off the publish path.
//
// Ownership discipline: an index carrying a delta must only receive
// delta mutations (InsertDelta/DeleteDelta/UpdateDelta). The
// single-record cascading mutators refuse while a delta is pending,
// and they refuse on shallow clones (CloneDelta) outright, because
// those share the base arrays with their origin — the single-mutator
// serving loop relies on both guards. A fold never writes the base
// arrays (it builds a new index), so it is safe on either.

// deltaState holds the pending unlayered mutations.
type deltaState struct {
	recs    []Record        // live delta inserts; vectors owned by the delta
	byID    map[uint64]int  // record ID -> index into recs
	dead    map[uint64]bool // tombstoned base record IDs
	deadPos map[int]bool    // tombstoned base positions (mirror of dead)
}

func newDeltaState() *deltaState {
	return &deltaState{
		byID:    make(map[uint64]int),
		dead:    make(map[uint64]bool),
		deadPos: make(map[int]bool),
	}
}

// clone deep-copies the delta bookkeeping. Vectors are shared — nothing
// in this package ever writes into a stored vector.
func (d *deltaState) clone() *deltaState {
	cp := &deltaState{
		recs:    append([]Record(nil), d.recs...),
		byID:    make(map[uint64]int, len(d.byID)),
		dead:    make(map[uint64]bool, len(d.dead)),
		deadPos: make(map[int]bool, len(d.deadPos)),
	}
	for id, i := range d.byID {
		cp.byID[id] = i
	}
	for id := range d.dead {
		cp.dead[id] = true
	}
	for p := range d.deadPos {
		cp.deadPos[p] = true
	}
	return cp
}

// errDeltaPending guards the single-record cascading mutators: folding
// the delta first (Compact) is required before structural maintenance,
// or the cascade would re-layer a base the delta still shadows.
var errDeltaPending = fmt.Errorf("core: delta buffer pending; compact before structural maintenance")

// errSharedBase guards every structural mutation on a shallow clone:
// CloneDelta shares the base arrays with its origin, so a cascade here
// would corrupt a published snapshot.
var errSharedBase = fmt.Errorf("core: index shares its base arrays (CloneDelta); deep Clone before structural maintenance")

// mutable reports whether the single-record cascading mutators may run.
func (ix *Index) mutable() error {
	if ix.shared {
		return errSharedBase
	}
	if ix.delta != nil {
		return errDeltaPending
	}
	return nil
}

// HasDelta reports whether unlayered mutations are pending.
func (ix *Index) HasDelta() bool { return ix.delta != nil }

// DeltaLen returns the pending mutation count (delta inserts plus
// tombstones) — the quantity a compaction threshold should watch.
func (ix *Index) DeltaLen() int {
	if ix.delta == nil {
		return 0
	}
	return len(ix.delta.recs) + len(ix.delta.dead)
}

// ensureDelta returns the delta, creating it on first use.
func (ix *Index) ensureDelta() *deltaState {
	if ix.delta == nil {
		ix.delta = newDeltaState()
	}
	return ix.delta
}

// maybeDropDelta restores the no-delta invariant once the buffer
// empties (e.g. a delta insert deleted again before compaction).
func (ix *Index) maybeDropDelta() {
	d := ix.delta
	if d != nil && len(d.recs) == 0 && len(d.dead) == 0 {
		ix.delta = nil
	}
}

// deltaHas reports whether id currently resolves to a live record,
// looking through the delta: a delta insert wins, a tombstone hides
// the base copy.
func (ix *Index) deltaHas(id uint64) bool {
	if ix.delta != nil {
		if _, ok := ix.delta.byID[id]; ok {
			return true
		}
		if ix.delta.dead[id] {
			return false
		}
	}
	_, ok := ix.posMap()[id]
	return ok
}

// deadPosSet returns the tombstoned-position set, or nil when there are
// no tombstones (the common case the query hot path branches on once
// per layer).
func (ix *Index) deadPosSet() map[int]bool {
	if ix.delta == nil || len(ix.delta.deadPos) == 0 {
		return nil
	}
	return ix.delta.deadPos
}

// InsertDelta appends records to the delta buffer: O(batch) per call,
// no hull work. Validation is all-or-nothing — a dimension mismatch or
// duplicate ID (against the merged view and within the batch) rejects
// the whole batch before any mutation. The columnar slabs stay — they describe the base layers, which are
// untouched.
func (ix *Index) InsertDelta(recs []Record) error {
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if len(r.Vector) != ix.dim {
			return fmt.Errorf("core: insert dimension %d, want %d", len(r.Vector), ix.dim)
		}
		if ix.deltaHas(r.ID) || seen[r.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, r.ID)
		}
		seen[r.ID] = true
	}
	d := ix.ensureDelta()
	for _, r := range recs {
		vec := make([]float64, len(r.Vector))
		copy(vec, r.Vector)
		d.byID[r.ID] = len(d.recs)
		d.recs = append(d.recs, Record{ID: r.ID, Vector: vec})
	}
	return nil
}

// DeleteDelta removes records through the delta buffer: a delta-resident
// ID leaves the buffer, a base-resident ID gains a tombstone; either
// way O(batch). With missingOK false an unknown (or duplicated) ID
// rejects the whole batch before any mutation; with missingOK true unknown IDs are skipped and the number of records
// actually removed is returned.
func (ix *Index) DeleteDelta(ids []uint64, missingOK bool) (int, error) {
	if !missingOK {
		seen := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			if !ix.deltaHas(id) {
				return 0, fmt.Errorf("%w: %d", ErrNotFound, id)
			}
			if seen[id] {
				return 0, fmt.Errorf("core: duplicate ID %d in batch", id)
			}
			seen[id] = true
		}
	}
	applied := 0
	for _, id := range ids {
		if !ix.deltaHas(id) {
			continue
		}
		d := ix.ensureDelta()
		if i, ok := d.byID[id]; ok {
			// Swap-remove from the delta; fix the moved record's slot.
			last := len(d.recs) - 1
			if i != last {
				d.recs[i] = d.recs[last]
				d.byID[d.recs[i].ID] = i
			}
			d.recs = d.recs[:last]
			delete(d.byID, id)
		} else {
			p := ix.posMap()[id]
			d.dead[id] = true
			d.deadPos[p] = true
		}
		applied++
	}
	ix.maybeDropDelta()
	return applied, nil
}

// UpdateDelta replaces the vector of an existing record through the
// delta buffer (delete + insert, as the paper prescribes, but without
// either cascade). O(1); atomic by construction.
func (ix *Index) UpdateDelta(id uint64, vector []float64) error {
	if len(vector) != ix.dim {
		return fmt.Errorf("core: update dimension %d, want %d", len(vector), ix.dim)
	}
	if !ix.deltaHas(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if _, err := ix.DeleteDelta([]uint64{id}, false); err != nil {
		return err
	}
	return ix.InsertDelta([]Record{{ID: id, Vector: vector}})
}

// CloneDelta returns a shallow clone for the serving layer's
// clone-apply-swap publish: the base arrays (points, IDs, layers,
// position maps, columnar layout) are shared by reference and only the O(delta)
// bookkeeping is copied, so publishing a mutation batch costs O(delta)
// instead of O(index). The clone — and, from then on, its origin —
// must never receive single-record cascades (they refuse, see
// mutable); apply mutations through InsertDelta/DeleteDelta/UpdateDelta
// and fold them back with Compact or CompactedClone.
func (ix *Index) CloneDelta() *Index {
	cp := &Index{
		dim:       ix.dim,
		pts:       ix.pts,
		ids:       ix.ids,
		layers:    ix.layers,
		layerOf:   ix.layerOf,
		posOf:     ix.posOf,
		posLazy:   ix.posLazy,
		recLazy:   ix.recLazy,
		free:      ix.free,
		tol:       ix.tol,
		seed:      ix.seed,
		workers:   ix.workers,
		joggled:   ix.joggled,
		cols:      ix.cols,
		colLazy:   ix.colLazy,
		noPrune:   ix.noPrune,
		noShells:  ix.noShells,
		shellMode: ix.shellMode,
		slabSrc:   ix.slabSrc,
		cc:        ix.cc,
		shared:    true,
	}
	ix.shared = true
	if ix.delta != nil {
		cp.delta = ix.delta.clone()
	}
	return cp
}

// Compact folds the pending delta into the layered base: the live
// record set is peeled from scratch (see folded), so the merged record
// set — and therefore every query answer — is unchanged; only the
// layering is refreshed. The fold is atomic: it builds a new index and
// swaps it in only on success, so on error the receiver, delta
// included, is exactly as it was. It never writes the receiver's base
// arrays, so it is safe on a shallow clone whose arrays a published
// snapshot shares.
func (ix *Index) Compact() error {
	if ix.delta == nil {
		return nil
	}
	next, err := ix.folded()
	if err != nil {
		return err
	}
	*ix = *next
	return nil
}

// CompactedClone returns the index with the delta folded into the
// layered base — the index a background compactor publishes, and the
// one a checkpoint persists (the on-disk layer format cannot represent
// a delta). The receiver is untouched. Without a pending delta there
// is nothing to fold and the result is a shallow clone (CloneDelta).
func (ix *Index) CompactedClone() (*Index, error) {
	if ix.delta == nil {
		return ix.CloneDelta(), nil
	}
	return ix.folded()
}

// folded builds the index the pending delta folds into, sorted-ID live
// records peeled by Build — or, with a compactor attached, the
// compactor's per-level union layers after it re-peels only the
// clusters the delta touched (clustered.go). Construction settings and
// the pruning flags carry over; the receiver is never written.
func (ix *Index) folded() (*Index, error) {
	opt := Options{Tol: ix.tol, Seed: ix.seed, Parallelism: ix.workers, Shells: ix.shellMode}
	var next *Index
	var cc ClusterCompactor
	var err error
	if ix.cc != nil {
		d := ix.delta
		deadIDs := make([]uint64, 0, len(d.dead))
		for id := range d.dead {
			deadIDs = append(deadIDs, id)
		}
		sort.Slice(deadIDs, func(i, j int) bool { return deadIDs[i] < deadIDs[j] })
		var layers [][]Record
		if cc, layers, err = ix.cc.Fold(d.recs, deadIDs); err != nil {
			return nil, fmt.Errorf("core: clustered compact: %w", err)
		}
		if len(layers) == 0 {
			next, err = Empty(ix.dim, opt)
		} else {
			next, err = FromLayers(layers, opt)
		}
		if err == nil && cc.Len() != len(next.posOf) {
			err = fmt.Errorf("compactor holds %d records, fold produced %d", cc.Len(), len(next.posOf))
		}
		if err != nil {
			return nil, fmt.Errorf("core: clustered compact: %w", err)
		}
	} else {
		// Sorting by ID makes the peel a function of the record set
		// alone, whatever the base's storage order.
		recs := ix.Records()
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		if len(recs) == 0 {
			next, err = Empty(ix.dim, opt)
		} else {
			next, err = Build(recs, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("core: compact: %w", err)
		}
	}
	next.joggled = next.joggled || ix.joggled
	next.noPrune = ix.noPrune
	next.noShells = ix.noShells
	next.cc = cc
	return next, nil
}

// rankDelta scores every pending delta record against the query and
// leaves in s.deltaRank, in the index's total order (score descending,
// ID ascending, Layer = -1), exactly the ones the query can still
// deliver: the delta's own top-limit, or all of them for an unbounded
// stream. This is the merge stream Next weaves into the base walk. A
// delta record outside the delta's top-limit is outranked by limit
// other delta records, so the merged top-limit cannot contain it.
//
// The buffer is a min-heap whose root is the weakest kept record, so
// once it holds limit records a new one costs one comparison against
// the root — the common case for a top-10 over a delta of hundreds —
// and only a record that beats the root is sifted in. A heapsort then
// puts the survivors in delivery order. Every record is scored, so
// Stats.RecordsEvaluated counts the whole delta, exactly like a layer.
// The dot product accumulates over j in index order, exactly like the
// layer kernels, so merged scores are bit-identical to the ones a
// rebuilt index would compute. The buffer is reused across calls.
func (s *Searcher) rankDelta() {
	recs := s.ix.delta.recs
	keep := len(recs)
	if s.remain > 0 && s.remain < keep {
		keep = s.remain
	}
	h := s.deltaRank[:0]
	for _, r := range recs {
		var sc float64
		for j, wj := range s.weights {
			sc += wj * r.Vector[j]
		}
		if len(h) < keep {
			h = append(h, Result{ID: r.ID, Score: sc, Layer: -1})
			siftUpResults(h, len(h)-1)
			continue
		}
		if !topk.ResultGreater(sc, r.ID, h[0].Score, h[0].ID) {
			continue
		}
		h[0] = Result{ID: r.ID, Score: sc, Layer: -1}
		siftDownResults(h, 0)
	}
	// Heapsort: the weakest record repeatedly swaps to the shrinking
	// tail, leaving the buffer in descending total order.
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDownResults(h[:i], 0)
	}
	s.deltaRank = h
	s.deltaPos = 0
	s.stats.RecordsEvaluated += len(recs)
}

// resultWeaker orders the delta buffer's min-heap: a is weaker than b
// when b ranks strictly before it on the total order.
func resultWeaker(a, b Result) bool {
	return topk.ResultGreater(b.Score, b.ID, a.Score, a.ID)
}

func siftUpResults(h []Result, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !resultWeaker(h[i], h[p]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownResults(h []Result, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && resultWeaker(h[l], h[m]) {
			m = l
		}
		if r < n && resultWeaker(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
