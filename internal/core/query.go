package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/topk"
)

// Result is one ranked answer of a top-N query.
type Result struct {
	ID    uint64
	Score float64
	// Layer is the 0-based layer the record came from.
	Layer int
}

// Stats describes the work a query performed; Table 1 of the paper
// reports exactly these two quantities averaged over a query load.
type Stats struct {
	// RecordsEvaluated counts score computations (one per record of each
	// accessed layer).
	RecordsEvaluated int
	// LayersAccessed counts the layers read.
	LayersAccessed int
	// LayersPruned counts layers skipped by the bound-based pruning of
	// the columnar path: once enough pending candidates beat a layer's
	// score bound, that layer and every deeper one are provably unable
	// to contribute and the walk stops without scoring them.
	LayersPruned int
	// RecordsSkippedByShells counts records of accessed layers that the
	// spherical-shell tables (shellslab.go) proved unable to enter the
	// layer's top-keep, so they were never scored. RecordsEvaluated
	// excludes them: evaluated + skipped = the accessed layers' sizes.
	RecordsSkippedByShells int
	// ShellLayers counts the accessed layers that were evaluated through
	// their shell table (whether or not any bucket was actually skipped).
	ShellLayers int
}

var errDim = errors.New("core: weight vector dimension mismatch")

// scoreParallelMin is the smallest layer for which a Searcher scores
// records on the worker pool; smaller layers stay on the inline loop
// (the fork/join overhead would exceed the dot products saved). A var
// so tests can lower it and drive the parallel path on small indexes.
var scoreParallelMin = 4096

// ErrNonFiniteWeight is returned by queries whose weight vector carries
// a NaN or ±Inf component. Such weights would otherwise flow straight
// through the arithmetic: NaN poisons every score and defeats the heap
// ordering, yielding garbage ranks. Rejecting at the query boundary
// keeps every downstream comparison meaningful.
var ErrNonFiniteWeight = errors.New("core: non-finite weight")

// ValidateWeights checks a query weight vector against an index
// dimension: the length must equal dim and every component must be
// finite. The returned error wraps ErrNonFiniteWeight for NaN/Inf
// components, making the two failure classes distinguishable to
// callers (e.g. for HTTP status mapping).
func ValidateWeights(weights []float64, dim int) error {
	if len(weights) != dim {
		return fmt.Errorf("%w: got %d, want %d", errDim, len(weights), dim)
	}
	for j, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weights[%d] = %v", ErrNonFiniteWeight, j, w)
		}
	}
	return nil
}

// TopN returns the n records maximizing the weighted sum weights·x, in
// descending score order, together with evaluation statistics. Fewer
// than n results are returned only when the index holds fewer than n
// records; n <= 0 returns no results (use NewSearcher's unbounded mode
// for the complete ranking). To minimize instead, negate the weights
// (paper Section 2). Weights must be finite: NaN or ±Inf components
// are rejected with an error wrapping ErrNonFiniteWeight.
//
// This is the query-evaluation procedure of paper Section 3.2: layers
// are retrieved outermost first; each layer contributes its best
// remaining records to a candidate set; a candidate is emitted once it
// beats the maximum of the current layer, which no deeper layer can
// exceed (Corollary 1).
func (ix *Index) TopN(weights []float64, n int) ([]Result, Stats, error) {
	if err := ValidateWeights(weights, ix.dim); err != nil {
		return nil, Stats{}, err
	}
	if n <= 0 {
		// The documented contract is "the n best records"; at n <= 0 that
		// is none. (NewSearcher deliberately maps limit <= 0 to an
		// unbounded stream — a sensible default for progressive retrieval
		// but an OOM-shaped surprise for a bounded one-shot query.)
		return nil, Stats{}, nil
	}
	s := ix.NewSearcher(weights, n)
	// n is caller-controlled; clamp the preallocation by the number of
	// live records so a huge n cannot force a huge allocation up front.
	out := make([]Result, 0, min(n, ix.Len()))
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, s.Stats(), nil
}

// Searcher streams the results of one linear optimization query in
// exact rank order (progressive retrieval, paper Section 3.3): the
// record ranked M is always delivered before the record ranked M+1, so
// clients can consume a prefix and abandon the rest at no extra cost.
type Searcher struct {
	ix       *Index
	cols     *colState // the index's columnar layout, resolved once
	weights  []float64
	remain   int     // results still to deliver; <0 means unbounded
	k        int     // next layer to evaluate
	wnorm    float64 // ‖weights‖, computed at the first prune check
	wnormSet bool
	cand     topk.MaxHeap
	emit     []Result // pending results in descending order
	emitPos  int
	scoreBuf []float64     // scratch for layer scoring, reused per layer
	best     *topk.Bounded // reusable per-layer top-k collector
	rankBuf  []topk.Item   // reusable sorted-layer scratch
	shellOrd []shellRef    // reusable shell bucket schedule scratch
	stats    Stats
	trace    func(TraceEvent) // optional step-by-step narration
	ctx      context.Context  // optional cancellation; nil = never cancelled
	err      error            // ctx error once observed

	// Delta merge stream (see delta.go): pending unlayered records
	// pre-scored and sorted on the total order at construction, woven
	// into the base walk by Next. nil when the index has no delta.
	deltaRank []Result
	deltaPos  int
}

// WithContext attaches ctx to the searcher: once ctx is cancelled or its
// deadline passes, Next stops before evaluating any further layer and
// reports no more results. The cause is available through Err. This is
// the hook a network server needs so an abandoned progressive stream
// stops consuming layers. Returns the searcher for chaining; must be
// called before the first Next.
func (s *Searcher) WithContext(ctx context.Context) *Searcher {
	s.ctx = ctx
	return s
}

// Err returns the context error that stopped the search, or nil when
// the search ended by limit or exhaustion (or is still running).
func (s *Searcher) Err() error { return s.err }

// cancelled records and reports a context cancellation.
func (s *Searcher) cancelled() bool {
	if s.ctx == nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return true
	}
	return false
}

// NewSearcherChecked prepares a progressive query, reporting exactly
// why a weight vector was rejected (wrong dimension, or a NaN/±Inf
// component wrapping ErrNonFiniteWeight). limit bounds the number of
// results; limit <= 0 deliberately streams the complete ranking (the
// progressive contract: consume a prefix, abandon the rest — an
// unbounded stream costs only what is read).
func (ix *Index) NewSearcherChecked(weights []float64, limit int) (*Searcher, error) {
	if err := ValidateWeights(weights, ix.dim); err != nil {
		return nil, err
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	if limit <= 0 {
		limit = -1
	}
	s := &Searcher{ix: ix, cols: ix.columns(), weights: w, remain: limit}
	if ix.delta != nil && len(ix.delta.recs) > 0 {
		// Brute-force the delta up front: every pending record is scored
		// exactly once per query, which the stats account like a layer.
		s.deltaRank = ix.rankDelta(w)
		s.stats.RecordsEvaluated += len(s.deltaRank)
	}
	return s, nil
}

// NewSearcher is NewSearcherChecked minus the diagnosis: it returns nil
// when the weight vector is invalid. Kept for callers that validate up
// front; new code that can surface errors should prefer the checked
// constructor so the reason is not lost.
func (ix *Index) NewSearcher(weights []float64, limit int) *Searcher {
	s, _ := ix.NewSearcherChecked(weights, limit)
	return s
}

// Stats returns the work performed so far.
func (s *Searcher) Stats() Stats { return s.stats }

// Next returns the next result in rank order. ok is false when the
// limit has been reached or the index is exhausted. With a pending
// delta the base walk and the pre-ranked delta stream are two exactly
// sorted sequences merged under the total order (score descending, ID
// ascending), so the merged stream is the exact ranking of the merged
// record set.
func (s *Searcher) Next() (Result, bool) {
	if s.remain == 0 || s.err != nil || s.cancelled() {
		return Result{}, false
	}
	if s.deltaRank == nil {
		if !s.fillBase() {
			return Result{}, false
		}
		return s.deliverBase(), true
	}
	baseOK := s.fillBase()
	if s.err != nil {
		// Cancellation inside the base walk must stop the merged stream
		// too, not fall through to draining the delta.
		return Result{}, false
	}
	if s.deltaPos < len(s.deltaRank) {
		d := s.deltaRank[s.deltaPos]
		if !baseOK || topk.ResultGreater(d.Score, d.ID, s.emit[s.emitPos].Score, s.emit[s.emitPos].ID) {
			s.deltaPos++
			if s.remain > 0 {
				s.remain--
			}
			return d, true
		}
	}
	if !baseOK {
		return Result{}, false
	}
	return s.deliverBase(), true
}

// fillBase refills the base walk's emit buffer until it holds an
// undelivered result, reporting false on exhaustion or cancellation
// (s.err distinguishes the two).
func (s *Searcher) fillBase() bool {
	for s.emitPos >= len(s.emit) {
		// Re-checked inside the refill loop so a cancelled context is
		// observed before every layer evaluation, not just once per result.
		if s.cancelled() {
			return false
		}
		if !s.advance() {
			return false
		}
	}
	return true
}

// deliverBase pops the buffered base head with Next's bookkeeping.
func (s *Searcher) deliverBase() Result {
	r := s.emit[s.emitPos]
	s.emitPos++
	if s.remain > 0 {
		s.remain--
	}
	return r
}

// advance evaluates one more layer (or drains the candidate set once
// layers are exhausted or pruned away) and refills the emit buffer. It
// reports false when nothing remains.
func (s *Searcher) advance() bool {
	ix := s.ix
	if s.k >= len(ix.layers) {
		return s.drainCandidates()
	}
	if s.tryPrune() {
		return s.drainCandidates()
	}
	// This layer will be evaluated: give the paging seam (mmap mode) its
	// chance to advise the layer's extents in. Pruned layers never get
	// here, so skipped scoring is skipped I/O too.
	ix.noteLayerAccess(s.k)
	sl := &s.cols.slabs[s.k]
	if s.remain > 0 {
		// Shell evaluation needs a bounded keep so the collector can fill
		// and its threshold become a pruning floor; unbounded searches
		// keep every record anyway, so the full scan is already optimal.
		if t := s.shellTab(); t != nil {
			s.consumeLayerShells(sl, t)
			return true
		}
	}
	n := len(sl.pos)
	scores := s.ensureScoreBuf(n)
	s.scoreRows(sl, scores, 0, n)
	s.consumeLayer(sl.pos, scores)
	return true
}

// drainCandidates finalizes pending candidates once no deeper layer can
// contribute: every remaining candidate is final, in heap order. Next
// trims to the limit.
func (s *Searcher) drainCandidates() bool {
	s.emit = s.emit[:0]
	s.emitPos = 0
	for s.remain < 0 || len(s.emit) < s.remain {
		it, ok := s.cand.Pop()
		if !ok {
			break
		}
		r := s.result(it)
		s.emitTrace(TraceEvent{Kind: TraceDrained, Layer: -1, ID: r.ID, Score: r.Score})
		s.emit = append(s.emit, r)
	}
	return len(s.emit) > 0
}

// tryPrune integrates the paper's Section 6 bound-based pruning
// (internal/shells) into the core walk: when the searcher already holds
// at least `remain` candidates whose scores strictly beat layer k's
// score bound — which, by hull nesting, also bounds every deeper layer
// — no unscored record can ever enter the remaining top results, so
// the walk ends and the candidates drain in heap order. The strict
// comparison is what keeps the output bit-identical to the unpruned
// walk: at an exact tie the walk prefers the deeper layer's
// record, so a tied bound must not prune. Reports whether it pruned
// (s.k jumps past the last layer).
func (s *Searcher) tryPrune() bool {
	ix := s.ix
	if s.remain <= 0 || ix.noPrune {
		return false
	}
	if s.cand.Len() < s.remain {
		return false
	}
	s.ensureWNorm()
	bound := s.cols.slabs[s.k].scoreBound(s.weights, s.wnorm)
	beat := 0
	for _, it := range s.cand.Items() {
		if it.Score > bound {
			beat++
			if beat >= s.remain {
				break
			}
		}
	}
	if beat < s.remain {
		return false
	}
	pruned := len(ix.layers) - s.k
	s.emitTrace(TraceEvent{Kind: TraceLayersPruned, Layer: s.k, Score: bound, Evaluated: pruned})
	s.stats.LayersPruned += pruned
	s.k = len(ix.layers)
	return true
}

// ensureWNorm computes ‖weights‖ once per searcher; both the layer
// bound (tryPrune) and the shell bucket bounds need it.
func (s *Searcher) ensureWNorm() {
	if s.wnormSet {
		return
	}
	var sq float64
	for _, w := range s.weights {
		sq += w * w
	}
	s.wnorm = math.Sqrt(sq)
	s.wnormSet = true
}

// ensureScoreBuf guarantees scratch for n scores, sized once at the
// largest layer so warm advances never reallocate.
func (s *Searcher) ensureScoreBuf(n int) []float64 {
	if cap(s.scoreBuf) < n {
		s.scoreBuf = make([]float64, max(n, s.cols.maxLayer))
	}
	return s.scoreBuf[:n]
}

// scoreRows fills scores[lo:hi] with the searcher's dot product over
// slab rows [lo, hi). Large runs are partitioned across the worker pool
// by row range; each worker fills its own slots, and the collector then
// consumes the scores in row order exactly as the sequential loop
// would, so the selected top-k (ties included) is identical at any
// parallelism.
func (s *Searcher) scoreRows(sl *layerSlab, scores []float64, lo, hi int) {
	workers := parallel.Workers(s.ix.workers)
	if workers > 1 && hi-lo >= scoreParallelMin {
		w := s.weights
		parallel.For(hi-lo, workers, scoreParallelMin, func(a, b int) {
			scoreSlabRange(scores, sl.data, w, lo+a, lo+b)
		})
		return
	}
	scoreSlabRange(scores, sl.data, s.weights, lo, hi)
}

// beginLayer starts a layer evaluation of n records: resets the emit
// buffer and sizes the reusable per-layer collector to keep the best
// min(remaining, n) records (anything weaker can never reach the final
// top-N because enough stronger records exist in this very layer;
// unbounded searches keep the whole layer).
func (s *Searcher) beginLayer(n int) {
	s.emit = s.emit[:0]
	s.emitPos = 0
	keep := n
	if s.remain > 0 && s.remain < keep {
		keep = s.remain
	}
	if s.best == nil {
		// Size the reusable collector once: no later layer can need more
		// than min(current remaining, largest layer) slots, so warm
		// advances never grow it.
		hint := s.cols.maxLayer
		if s.remain > 0 && s.remain < hint {
			hint = s.remain
		}
		if hint < keep {
			hint = keep
		}
		s.best = topk.NewBounded(hint)
		s.rankBuf = make([]topk.Item, 0, hint)
	}
	s.best.ResetK(keep)
}

// consumeLayer folds one scored layer into the searcher's state: offers
// every live record to the collector, then finalizes through
// finishLayer. pos lists internal positions parallel to scores — the
// slab's pos array, whose rows shell tables may have bucket-reordered.
func (s *Searcher) consumeLayer(pos []int, scores []float64) {
	s.beginLayer(len(pos))
	// Tombstoned positions (delta buffer deletes, see delta.go) are
	// excluded from the ranking but NOT from the Corollary 1 bound:
	// deeper layers nest inside this layer's hull with the tombstoned
	// vertices still on it, so the finalization bound must be the
	// maximum over every record of the layer, dead or alive.
	dead := s.ix.deadPosSet()
	var deadMax float64
	haveDead := false
	if dead == nil {
		for i, p := range pos {
			s.best.Offer(topk.Item{ID: p, Score: scores[i]})
		}
	} else {
		for i, p := range pos {
			if dead[p] {
				if !haveDead || scores[i] > deadMax {
					deadMax, haveDead = scores[i], true
				}
				continue
			}
			s.best.Offer(topk.Item{ID: p, Score: scores[i]})
		}
	}
	s.finishLayer(len(pos), deadMax, haveDead)
}

// finishLayer completes the current layer: accounts the work, ranks the
// collector, finalizes outer candidates and the layer maximum under the
// Corollary 1 bound, and turns the rest into candidates. evaluated is
// the number of records actually scored (the whole layer on the plain
// path; possibly fewer through shells).
func (s *Searcher) finishLayer(evaluated int, deadMax float64, haveDead bool) {
	ix := s.ix
	s.stats.LayersAccessed++
	s.stats.RecordsEvaluated += evaluated
	s.rankBuf = s.best.DescendingInto(s.rankBuf[:0])
	t := s.rankBuf
	// maxT bounds every record of this and deeper layers; emitTop says
	// whether the live layer maximum itself is final — it is unless a
	// tombstone strictly beats it, in which case an unseen deeper record
	// may still outrank it and t[0] must stay a candidate. Without
	// tombstones this is exactly the unconditional emission.
	var maxT float64
	emitTop := false
	switch {
	case len(t) > 0 && (!haveDead || t[0].Score >= deadMax):
		maxT = t[0].Score
		emitTop = true
	case len(t) > 0:
		maxT = deadMax
	case haveDead:
		maxT = deadMax
	default:
		// Entirely empty layer (cannot happen: construction never emits
		// one and tombstones leave deadMax set). Finalize nothing.
		s.k++
		return
	}
	if len(t) > 0 {
		s.emitTrace(TraceEvent{
			Kind: TraceLayerEvaluated, Layer: s.k,
			ID: ix.ids[t[0].ID], Score: t[0].Score, Evaluated: evaluated,
		})
	}

	// Candidates from outer layers that beat this layer's maximum can be
	// finalized now: no deeper layer can exceed maxT (Corollary 1). The
	// emission loop stops at the query limit: anything further stays a
	// candidate (it would never be delivered).
	for s.remain < 0 || len(s.emit) < s.remain {
		c, ok := s.cand.Peek()
		if !ok || c.Score <= maxT {
			break
		}
		s.cand.Pop()
		r := s.result(c)
		s.emitTrace(TraceEvent{Kind: TraceResultFromCandidates, Layer: s.k, ID: r.ID, Score: r.Score})
		s.emit = append(s.emit, r)
	}
	// This layer's maximum is final too; the rest become candidates.
	rest := t
	if emitTop && (s.remain < 0 || len(s.emit) < s.remain) {
		r0 := s.result(t[0])
		s.emitTrace(TraceEvent{Kind: TraceResultFromLayer, Layer: s.k, ID: r0.ID, Score: r0.Score})
		s.emit = append(s.emit, r0)
		rest = t[1:]
	}
	for _, it := range rest {
		s.emitTrace(TraceEvent{Kind: TraceCandidateKept, Layer: s.k, ID: ix.ids[it.ID], Score: it.Score})
		s.cand.Push(it)
	}
	s.k++
}

func (s *Searcher) result(it topk.Item) Result {
	return Result{ID: s.ix.ids[it.ID], Score: it.Score, Layer: s.ix.layerOfPos(it.ID)}
}

// Score computes weights·vector for an arbitrary record by ID, looking
// through any pending delta.
func (ix *Index) Score(weights []float64, id uint64) (float64, bool) {
	v, ok := ix.Vector(id)
	if !ok {
		return 0, false
	}
	var s float64
	for j, wj := range weights {
		s += wj * v[j]
	}
	return s, true
}
