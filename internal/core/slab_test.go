package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/workload"
)

// resultsBitIdentical asserts two result streams are indistinguishable:
// same length, same IDs in the same order, same layer attribution, and
// scores equal to the last bit (math.Float64bits, so ±0.0 and NaN
// payloads would be caught too). This is the acceptance bar of the
// columnar rewrite: not "numerically close", identical.
func resultsBitIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Layer != want[i].Layer ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d: got {ID:%d Score:%x Layer:%d}, want {ID:%d Score:%x Layer:%d}",
				label, i,
				got[i].ID, math.Float64bits(got[i].Score), got[i].Layer,
				want[i].ID, math.Float64bits(want[i].Score), want[i].Layer)
		}
	}
}

func randWeights(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	return w
}

// TestColumnarMatchesLegacyAndBrute is the tentpole property: for random
// indexes and random (positive, negative, mixed) weight vectors, the
// slab walk produces bit-identical top-N output — IDs, scores, order —
// at worker counts 1 and 4, with bound pruning on and off, against a
// legacy reference — the sequential, unpruned walk of an identically
// built twin — and the brute-force oracle.
func TestColumnarMatchesLegacyAndBrute(t *testing.T) {
	for _, tc := range []struct {
		dist workload.Distribution
		n, d int
	}{
		{workload.Gaussian, 900, 2},
		{workload.Gaussian, 1200, 3},
		{workload.Gaussian, 1500, 4},
		{workload.Uniform, 1200, 5},
		{workload.Exponential, 1200, 6},
	} {
		pts := workload.Points(tc.dist, tc.n, tc.d, int64(7*tc.n+tc.d))
		ix, err := Build(mkRecords(pts), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ix.cols == nil {
			t.Fatalf("%v %dD: Build did not materialize slabs", tc.dist, tc.d)
		}

		// Reference: a sequential, unpruned twin of the same index.
		legacy, err := Build(mkRecords(pts), Options{Seed: 3, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		legacy.SetPruningMode(PruneNothing)

		rng := rand.New(rand.NewSource(int64(tc.n)))
		defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
		scoreParallelMin = 64 // force the parallel kernels onto these small layers
		for trial := 0; trial < 12; trial++ {
			w := randWeights(rng, tc.d)
			n := 1 + rng.Intn(40)
			wantRes, _, err := legacy.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				ix.SetParallelism(workers)
				for _, prune := range []bool{true, false} {
					ix.SetLayerPruning(prune)
					got, _, err := ix.TopN(w, n)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%v %dD trial %d workers=%d prune=%v", tc.dist, tc.d, trial, workers, prune)
					resultsBitIdentical(t, label, got, wantRes)
				}
			}
			ix.SetParallelism(0)
			ix.SetLayerPruning(true)

			// Brute-force oracle: same accumulation order (geom.Dot), so
			// scores must match to the bit; tie order between oracle and
			// walk is unspecified, so compare score sequence + ID sets.
			brute := bruteTopN(pts, w, n)
			if len(brute) != len(wantRes) {
				t.Fatalf("oracle %d vs %d results", len(brute), len(wantRes))
			}
			ids := map[uint64]bool{}
			for i := range wantRes {
				if math.Float64bits(wantRes[i].Score) != math.Float64bits(brute[i].score) {
					t.Fatalf("%v %dD trial %d rank %d: walk score %x, oracle %x",
						tc.dist, tc.d, trial, i,
						math.Float64bits(wantRes[i].Score), math.Float64bits(brute[i].score))
				}
				ids[wantRes[i].ID] = true
			}
			for i := range brute {
				// Only unambiguous ranks (no score tie with a neighbor) pin
				// a specific ID.
				tied := (i > 0 && brute[i-1].score == brute[i].score) ||
					(i+1 < len(brute) && brute[i+1].score == brute[i].score)
				if !tied && !ids[brute[i].id] {
					t.Fatalf("oracle rank %d id %d missing from walk output", i, brute[i].id)
				}
			}
		}
	}
}

// TestTopNBatchMatchesSolo: a batch of queries must return, per query,
// exactly what a solo TopN returns — bit-identical results and equal
// Stats — at worker counts 1 and 4, with shells off and on, including
// duplicate weight vectors within the batch and single-axis vectors
// (the paper's degenerate query, answered by the layer walk).
func TestTopNBatchMatchesSolo(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 2000, 4, 99)
	ix, err := Build(mkRecords(pts), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
	scoreParallelMin = 64

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 16; trial++ {
		// Odd trials run in shell mode, where the per-query bucket
		// schedule decides the work statistics.
		ix.SetShellPruning(trial%2 == 1)
		nq := 1 + rng.Intn(7)
		n := 1 + rng.Intn(25)
		batch := make([][]float64, nq)
		for q := range batch {
			switch rng.Intn(4) {
			case 0: // single-axis
				w := make([]float64, 4)
				w[rng.Intn(4)] = 1 + rng.Float64()
				batch[q] = w
			case 1: // duplicate of an earlier query when possible
				if q > 0 {
					batch[q] = batch[q-1]
				} else {
					batch[q] = randWeights(rng, 4)
				}
			default:
				batch[q] = randWeights(rng, 4)
			}
		}
		for _, workers := range []int{1, 4} {
			ix.SetParallelism(workers)
			gotRes, gotStats, err := ix.TopNBatch(batch, n)
			if err != nil {
				t.Fatal(err)
			}
			for q, w := range batch {
				wantRes, wantStats, err := ix.TopN(w, n)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d shells=%v workers=%d query %d", trial, ix.ShellPruning(), workers, q)
				resultsBitIdentical(t, label, gotRes[q], wantRes)
				if !reflect.DeepEqual(gotStats[q], wantStats) {
					t.Fatalf("%s: stats %+v, want %+v", label, gotStats[q], wantStats)
				}
			}
		}
	}
	ix.SetParallelism(0)

	// Error contract: one bad vector fails the whole batch up front.
	if _, _, err := ix.TopNBatch([][]float64{{1, 0, 0, 0}, {math.NaN(), 0, 0, 0}}, 5); err == nil {
		t.Fatal("NaN weight accepted in batch")
	}
	// n <= 0 mirrors TopN: no results, no error.
	res, st, err := ix.TopNBatch([][]float64{{1, 0, 0, 0}}, 0)
	if err != nil || len(res) != 1 || res[0] != nil || st[0] != (Stats{}) {
		t.Fatalf("n=0 batch: res=%v stats=%v err=%v", res, st, err)
	}
}

// shellIndex builds a deep index whose layers are concentric spherical
// shells with geometrically decaying radii — the geometry the paper's
// Section 6 shell pruning targets, and one where the norm bound
// provably kicks in: after the outermost layer, plenty of its records
// still outscore the next shell's Cauchy–Schwarz bound r·‖w‖.
func shellIndex(t *testing.T) *Index {
	t.Helper()
	const layersN, perLayer, dim = 15, 60, 3
	layers := make([][]Record, layersN)
	id := uint64(1)
	radius := 100.0
	for k := range layers {
		pts := workload.Points(workload.Sphere, perLayer, dim, int64(1000+k))
		recs := make([]Record, perLayer)
		for i, p := range pts {
			v := make([]float64, dim)
			for j := range v {
				v[j] = p[j] * radius
			}
			recs[i] = Record{ID: id, Vector: v}
			id++
		}
		layers[k] = recs
		radius /= 2
	}
	ix, err := FromLayers(layers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPruningFiresAndIsExact: on a shell-layered index a small-n query
// must actually trigger the bound-based early stop (otherwise the
// integration is dead code), and the pruned walk must return the exact
// unpruned output while touching fewer records.
func TestPruningFiresAndIsExact(t *testing.T) {
	ix := shellIndex(t)
	w := []float64{1, 0.5, 0.25}

	ix.SetLayerPruning(false)
	wantRes, wantStats, err := ix.TopN(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetLayerPruning(true)
	gotRes, gotStats, err := ix.TopN(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "pruned vs unpruned", gotRes, wantRes)
	if gotStats.LayersPruned == 0 {
		t.Fatalf("pruning never fired on %d shell layers (stats %+v)", ix.NumLayers(), gotStats)
	}
	if gotStats.RecordsEvaluated >= wantStats.RecordsEvaluated {
		t.Errorf("pruned walk evaluated %d records, unpruned %d — no savings",
			gotStats.RecordsEvaluated, wantStats.RecordsEvaluated)
	}
	if gotStats.LayersAccessed+gotStats.LayersPruned != ix.NumLayers() {
		t.Errorf("accessed %d + pruned %d != %d layers",
			gotStats.LayersAccessed, gotStats.LayersPruned, ix.NumLayers())
	}

	// The pruning trace must narrate the early stop.
	s := ix.NewSearcher(w, 3)
	sawPrune := false
	s.Trace(func(ev TraceEvent) {
		if ev.Kind == TraceLayersPruned {
			sawPrune = true
			if ev.Evaluated != gotStats.LayersPruned {
				t.Errorf("trace pruned %d layers, stats say %d", ev.Evaluated, gotStats.LayersPruned)
			}
		}
	})
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if !sawPrune {
		t.Error("no TraceLayersPruned event emitted")
	}
}

// TestScoreBoundIsSound: the per-layer bound must dominate every score
// actually attained in that layer and every deeper one, for random
// weights — the invariant pruning's exactness rests on.
func TestScoreBoundIsSound(t *testing.T) {
	ix := buildRand(t, workload.Exponential, 2500, 4, 17)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		w := randWeights(rng, 4)
		var wsq float64
		for _, x := range w {
			wsq += x * x
		}
		wnorm := math.Sqrt(wsq)
		for k := 0; k < ix.NumLayers(); k++ {
			bound := ix.columns().slabs[k].scoreBound(w, wnorm)
			for kk := k; kk < ix.NumLayers(); kk++ {
				for _, r := range ix.Layer(kk) {
					var s float64
					for j, wj := range w {
						s += wj * r.Vector[j]
					}
					if s > bound {
						t.Fatalf("layer %d bound %v < score %v of record %d in layer %d (weights %v)",
							k, bound, s, r.ID, kk, w)
					}
				}
			}
		}
	}
}

// TestWarmSearcherNextZeroAllocs: after a warm-up pass, pulling results
// from a columnar Searcher must not allocate — the scratch (scoreBuf,
// per-layer collector, rank buffer, emit) is all reused.
func TestWarmSearcherNextZeroAllocs(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 4000, 4, 8)
	ix.SetParallelism(1) // the fork-join path allocates goroutine bookkeeping
	w := []float64{0.4, -0.2, 0.9, 0.1}

	s := ix.NewSearcher(w, 64)
	// Warm-up: run the searcher to completion once so every buffer —
	// including the candidate heap — reaches its high-water capacity.
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	// Rewind by hand: a Searcher is single-use, but its buffers are what
	// we are testing, so re-prime the same struct the way NewSearcher
	// would and drain again under the allocation counter.
	reset := func() {
		s.remain = 64
		s.k = 0
		s.cand.Reset()
		s.emit = s.emit[:0]
		s.emitPos = 0
		s.stats = Stats{}
	}
	reset()
	avg := testing.AllocsPerRun(20, func() {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		reset()
	})
	if avg != 0 {
		t.Fatalf("warm columnar search allocates %v times per run, want 0", avg)
	}
}

// TestMutationInvalidatesSlabs: any maintenance defers the columnar
// layout to the next query, which rebuilds it behind the latch (results
// stay correct), and BuildSlabs materializes it eagerly with identical
// output.
func TestMutationInvalidatesSlabs(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 600, 3, 31)
	if ix.cols == nil {
		t.Fatal("fresh build has no slabs")
	}
	w := []float64{0.3, 0.3, 0.4}
	if err := ix.Insert(Record{ID: 100000, Vector: []float64{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	if ix.cols != nil || ix.colLazy == nil {
		t.Fatal("slabs survived an insert")
	}
	afterRes, _, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if afterRes[0].ID != 100000 {
		t.Fatalf("dominating insert not ranked first: %+v", afterRes[0])
	}
	ix.BuildSlabs()
	if ix.cols == nil || ix.colLazy != nil {
		t.Fatal("BuildSlabs did not materialize slabs")
	}
	rebuilt, _, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "prebuilt vs lazily built slabs", rebuilt, afterRes)

	if err := ix.Delete(100000); err != nil {
		t.Fatal(err)
	}
	if ix.cols != nil {
		t.Fatal("slabs survived a delete")
	}
}

// TestCloneSharesSlabs: a clone starts with the parent's slabs (the
// serving snapshot path queries clones immediately), and maintenance on
// the clone must not disturb the parent's columnar state.
func TestCloneSharesSlabs(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 800, 3, 12)
	cp := ix.Clone()
	if cp.cols != ix.cols {
		t.Fatal("clone does not share the slabs")
	}
	if err := cp.Insert(Record{ID: 55555, Vector: []float64{5, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	if cp.cols != nil {
		t.Fatal("clone slabs survived mutation")
	}
	if ix.cols == nil {
		t.Fatal("mutating the clone dropped the parent's slabs")
	}
	w := []float64{1, 1, 1}
	a, _, _ := ix.TopN(w, 5)
	b, _, _ := cp.TopN(w, 6)
	if b[0].ID != 55555 {
		t.Fatalf("clone insert not visible on clone: %+v", b[0])
	}
	resultsBitIdentical(t, "parent unchanged", a, mustTopN(t, ix, w, 5))
	_ = a
}

func mustTopN(t *testing.T, ix *Index, w []float64, n int) []Result {
	t.Helper()
	res, _, err := ix.TopN(w, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFromLayersBuildsSlabs: the deserialize path materializes slabs
// zero-copy and queries through them identically to a fresh build.
func TestFromLayersBuildsSlabs(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 700, 3, 77)
	layers := make([][]Record, ix.NumLayers())
	for k := range layers {
		layers[k] = ix.Layer(k)
	}
	re, err := FromLayers(layers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.cols == nil {
		t.Fatal("FromLayers did not build slabs")
	}
	w := []float64{-0.2, 0.7, 0.4}
	resultsBitIdentical(t, "fromlayers vs build", mustTopN(t, re, w, 15), mustTopN(t, ix, w, 15))

	// The zero-copy claim: each layer's record vectors alias the slab.
	sl := &re.cols.slabs[0]
	first := re.layers[0][0]
	if &re.pts[first][0] != &sl.data[0] {
		t.Error("layer 0 vectors are not views into the slab arena")
	}
}

// TestNewSearcherChecked: the checked constructor surfaces the precise
// validation failure the bare constructor used to swallow.
func TestNewSearcherChecked(t *testing.T) {
	ix := buildRand(t, workload.Uniform, 50, 3, 3)
	if _, err := ix.NewSearcherChecked([]float64{1, 2}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := ix.NewSearcherChecked([]float64{1, math.Inf(1), 0}, 5); err == nil {
		t.Error("Inf weight accepted")
	}
	s, err := ix.NewSearcherChecked([]float64{1, 2, 3}, 5)
	if err != nil || s == nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
	if got := ix.NewSearcher([]float64{1, 2}, 5); got != nil {
		t.Error("NewSearcher no longer returns nil on invalid weights")
	}
}

// sortedByScore guards the test helpers themselves.
func sortedByScore(rs []Result) bool {
	return sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].Score > rs[j].Score })
}

// TestBatchUnboundedRejected pins the batch contract at the edges: an
// empty batch is fine, and batch results come back rank-ordered.
func TestBatchEdges(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 300, 3, 9)
	res, st, err := ix.TopNBatch(nil, 10)
	if err != nil || len(res) != 0 || len(st) != 0 {
		t.Fatalf("empty batch: %v %v %v", res, st, err)
	}
	out, _, err := ix.TopNBatch([][]float64{{1, 0, 0}, {0, -1, 2}}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for q, rs := range out {
		if !sortedByScore(rs) {
			t.Errorf("query %d results out of order", q)
		}
	}
}
