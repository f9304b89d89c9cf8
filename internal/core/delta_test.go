package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/topk"
	"repro/internal/workload"
)

// bruteRank is the total-order oracle: every live record scored and
// sorted score-descending, ID-ascending — the ranking every query path
// must reproduce bit-for-bit on a tie-free corpus.
func bruteRank(recs []Record, w []float64) []Result {
	out := make([]Result, 0, len(recs))
	for _, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		out = append(out, Result{ID: r.ID, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		return topk.ResultGreater(out[a].Score, out[a].ID, out[b].Score, out[b].ID)
	})
	return out
}

// sameRanking compares IDs and exact score bits, ignoring Layer (delta
// records report -1; a rebuild assigns real layers).
func sameRanking(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d: got (%d, %x) want (%d, %x)",
				ctx, i, got[i].ID, math.Float64bits(got[i].Score),
				want[i].ID, math.Float64bits(want[i].Score))
		}
	}
}

// checkDeltaAgainstOracles gates one delta-carrying index against both
// a brute-force total-order scan and a from-scratch rebuild of the
// merged record set, over several weight vectors, limits, and every
// query path (TopN, unbounded searcher, TopNBatch, filtered).
func checkDeltaAgainstOracles(t *testing.T, ix *Index, rng *rand.Rand, step int) {
	t.Helper()
	recs := ix.Records()
	rebuilt, err := Build(append([]Record(nil), recs...), Options{})
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	if ix.Len() != rebuilt.Len() {
		t.Fatalf("step %d: Len %d, rebuilt %d", step, ix.Len(), rebuilt.Len())
	}
	dim := ix.Dim()
	ws := make([][]float64, 3)
	for qi := range ws {
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		ws[qi] = w
	}
	for qi, w := range ws {
		brute := bruteRank(recs, w)
		for _, n := range []int{1, 7, len(recs) + 5} {
			want := brute
			if n < len(want) {
				want = want[:n]
			}
			got, _, err := ix.TopN(w, n)
			if err != nil {
				t.Fatalf("step %d: TopN: %v", step, err)
			}
			sameRanking(t, "delta TopN vs brute", got, want)
			ref, _, err := rebuilt.TopN(w, n)
			if err != nil {
				t.Fatalf("step %d: rebuilt TopN: %v", step, err)
			}
			sameRanking(t, "delta TopN vs rebuild", got, ref)
		}
		// Unbounded progressive stream: the complete merged ranking.
		s, err := ix.NewSearcherChecked(w, 0)
		if err != nil {
			t.Fatalf("step %d: searcher: %v", step, err)
		}
		var all []Result
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			all = append(all, r)
		}
		sameRanking(t, "delta full stream vs brute", all, brute)
		_ = qi
	}
	// Batch path against per-query walks.
	batch, _, err := ix.TopNBatch(ws, 6)
	if err != nil {
		t.Fatalf("step %d: TopNBatch: %v", step, err)
	}
	for qi, w := range ws {
		want := bruteRank(recs, w)
		if len(want) > 6 {
			want = want[:6]
		}
		sameRanking(t, "delta TopNBatch vs brute", batch[qi], want)
	}
	// Filtered expansion must see delta vectors and skip tombstones.
	w := ws[0]
	ranges := map[int][2]float64{0: {-0.5, math.Inf(1)}}
	got, _, err := ix.TopNInRanges(w, 5, ranges)
	if err != nil {
		t.Fatalf("step %d: TopNInRanges: %v", step, err)
	}
	var wantF []Result
	for _, r := range bruteRank(recs, w) {
		v, ok := ix.Vector(r.ID)
		if !ok {
			t.Fatalf("step %d: Vector(%d) missing", step, r.ID)
		}
		if v[0] >= -0.5 {
			wantF = append(wantF, r)
			if len(wantF) == 5 {
				break
			}
		}
	}
	sameRanking(t, "delta filtered vs brute", got, wantF)
}

// TestDeltaEquivalentToRebuild is the write-path flagship property:
// interleaved inserts, deletes, and updates applied through the delta
// buffer (on CloneDelta chains, exactly like the serving layer's
// publish loop) answer every query bit-identically to an index rebuilt
// from scratch after every step — and still do after compaction.
func TestDeltaEquivalentToRebuild(t *testing.T) {
	for dim := 2; dim <= 4; dim++ {
		dim := dim
		t.Run(map[int]string{2: "dim2", 3: "dim3", 4: "dim4"}[dim], func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(9000 + dim)))
			base, err := Build(mkRecords(workload.Points(workload.Uniform, 120, dim, int64(dim)*77)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			cur := base
			nextID := uint64(10_000)
			for step := 0; step < 24; step++ {
				next := cur.CloneDelta()
				switch rng.Intn(3) {
				case 0: // insert 1–3 records
					var batch []Record
					for i := 0; i < 1+rng.Intn(3); i++ {
						vec := make([]float64, dim)
						for j := range vec {
							vec[j] = rng.NormFloat64()
						}
						batch = append(batch, Record{ID: nextID, Vector: vec})
						nextID++
					}
					if err := next.InsertDelta(batch); err != nil {
						t.Fatalf("step %d: InsertDelta: %v", step, err)
					}
				case 1: // delete 1–2 existing records (base or delta resident)
					recs := next.Records()
					ids := []uint64{recs[rng.Intn(len(recs))].ID}
					if rng.Intn(2) == 0 {
						ids = append(ids, recs[rng.Intn(len(recs))].ID)
					}
					applied, err := next.DeleteDelta(ids, true)
					if err != nil {
						t.Fatalf("step %d: DeleteDelta: %v", step, err)
					}
					if applied == 0 {
						t.Fatalf("step %d: DeleteDelta applied nothing for %v", step, ids)
					}
				default: // update one existing record
					recs := next.Records()
					id := recs[rng.Intn(len(recs))].ID
					vec := make([]float64, dim)
					for j := range vec {
						vec[j] = rng.NormFloat64()
					}
					if err := next.UpdateDelta(id, vec); err != nil {
						t.Fatalf("step %d: UpdateDelta: %v", step, err)
					}
				}
				cur = next
				checkDeltaAgainstOracles(t, cur, rng, step)
			}
			// Compaction folds the delta without changing any answer.
			if !cur.HasDelta() {
				t.Fatal("walk ended with no pending delta")
			}
			before := bruteRank(cur.Records(), []float64{1, 2, 3, 4}[:dim])
			compacted, err := cur.CompactedClone()
			if err != nil {
				t.Fatalf("CompactedClone: %v", err)
			}
			if compacted.HasDelta() {
				t.Fatal("compacted clone still has a delta")
			}
			if compacted.Len() != cur.Len() {
				t.Fatalf("compacted Len %d, want %d", compacted.Len(), cur.Len())
			}
			got, _, err := compacted.TopN([]float64{1, 2, 3, 4}[:dim], len(before))
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "compacted vs brute", got, before)
			// The origin is untouched and still answers identically.
			got2, _, err := cur.TopN([]float64{1, 2, 3, 4}[:dim], len(before))
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "origin after compaction", got2, before)
		})
	}
}

// TestDeltaTombstoneBound deletes the current top-1 repeatedly. Each
// deletion tombstones the best-scoring record — usually an outer-layer
// hull vertex — so the walk must keep using the dead record's score as
// the Corollary 1 bound while never emitting it. An unsound bound
// surfaces immediately as a wrong top-1.
func TestDeltaTombstoneBound(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Uniform, 400, 3, 99)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, 1.5, -0.7}
	cur := ix.CloneDelta()
	for round := 0; round < 60; round++ {
		want := bruteRank(cur.Records(), w)
		if len(want) > 10 {
			want = want[:10]
		}
		got, _, err := cur.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "tombstone walk", got, want)
		if _, err := cur.DeleteDelta([]uint64{got[0].ID}, false); err != nil {
			t.Fatalf("round %d: delete top: %v", round, err)
		}
	}
}

// TestDeltaMutatorGuards pins the ownership discipline: structural
// cascades refuse while a delta is pending and refuse outright on
// shallow clones, which share base arrays with published snapshots.
func TestDeltaMutatorGuards(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Uniform, 50, 2, 7)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := ix.CloneDelta()
	if err := sh.Insert(Record{ID: 999, Vector: []float64{0, 0}}); err == nil {
		t.Fatal("Insert on a shallow clone must refuse")
	}
	if err := ix.Delete(1); err == nil {
		t.Fatal("Delete on a shared origin must refuse")
	}
	if err := sh.InsertDelta([]Record{{ID: 999, Vector: []float64{0.1, 0.2}}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Compact(); err == nil {
		t.Fatal("Compact on a shallow clone must refuse")
	}
	deep := sh.Clone()
	if err := deep.Insert(Record{ID: 1000, Vector: []float64{0, 0}}); err == nil {
		t.Fatal("Insert with a pending delta must refuse")
	}
	if err := deep.Compact(); err != nil {
		t.Fatalf("Compact on a deep clone: %v", err)
	}
	if err := deep.Insert(Record{ID: 1000, Vector: []float64{0.3, 0.4}}); err != nil {
		t.Fatalf("Insert after compaction: %v", err)
	}
	// Duplicate and missing IDs through the delta mirror the legacy
	// error contract.
	next := deep.CloneDelta()
	if err := next.InsertDelta([]Record{{ID: 999, Vector: []float64{1, 1}}}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate delta insert: %v", err)
	}
	if _, err := next.DeleteDelta([]uint64{424242}, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing delta delete: %v", err)
	}
	if n, err := next.DeleteDelta([]uint64{424242}, true); err != nil || n != 0 {
		t.Fatalf("missing-ok delta delete: %d, %v", n, err)
	}
}

// TestDeltaFingerprint: an empty delta leaves the fingerprint exactly
// as the layered base computes it; pending state changes it; logically
// identical delta states fingerprint equal.
func TestDeltaFingerprint(t *testing.T) {
	ix, err := Build(mkRecords(workload.Points(workload.Uniform, 60, 2, 8)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := ix.Fingerprint()
	a := ix.CloneDelta()
	if a.Fingerprint() != fp {
		t.Fatal("empty delta changed the fingerprint")
	}
	if err := a.InsertDelta([]Record{{ID: 777, Vector: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == fp {
		t.Fatal("pending insert did not change the fingerprint")
	}
	b := ix.CloneDelta()
	if err := b.InsertDelta([]Record{{ID: 777, Vector: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical delta states fingerprint differently")
	}
	// Deleting the pending insert restores the delta-free fingerprint.
	if _, err := a.DeleteDelta([]uint64{777}, false); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != fp {
		t.Fatal("emptied delta did not restore the fingerprint")
	}
}
