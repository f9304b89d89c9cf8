package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hull"
	"repro/internal/workload"
)

// insertFold and deleteFold are the batch maintenance path: the batch
// joins the delta buffer and Compact re-peels the live record set.
func insertFold(ix *Index, recs []Record) error {
	if err := ix.InsertDelta(recs); err != nil {
		return err
	}
	return ix.Compact()
}

func deleteFold(ix *Index, ids []uint64) error {
	if _, err := ix.DeleteDelta(ids, false); err != nil {
		return err
	}
	return ix.Compact()
}

func TestDeleteBatchBasic(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 400, 2, 71)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the entire outermost layer plus some random inner records.
	var ids []uint64
	for _, r := range ix.Layer(0) {
		ids = append(ids, r.ID)
	}
	ids = append(ids, ix.Layer(3)[0].ID, ix.Layer(5)[0].ID)
	if err := deleteFold(ix, ids); err != nil {
		t.Fatal(err)
	}
	want := 400 - len(ids)
	checkLayerInvariant(t, ix, want)
	checkQueriesMatchOracle(t, ix)
	for _, id := range ids {
		if _, ok := ix.LayerOf(id); ok {
			t.Fatalf("record %d still present", id)
		}
	}
}

func TestDeleteBatchErrors(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 0}, {0, 1}, {0.2, 0.2}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := deleteFold(ix, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := deleteFold(ix, []uint64{99}); err == nil {
		t.Error("unknown ID accepted")
	}
	if err := deleteFold(ix, []uint64{1, 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
	// Failed batches must not mutate.
	if ix.HasDelta() {
		t.Error("rejected batch left a pending delta")
	}
	checkLayerInvariant(t, ix, 4)
}

func TestDeleteBatchEverything(t *testing.T) {
	pts := workload.Points(workload.Uniform, 100, 2, 72)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, r := range ix.Records() {
		ids = append(ids, r.ID)
	}
	if err := deleteFold(ix, ids); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.NumLayers() != 0 || ix.HasDelta() {
		t.Fatalf("len=%d layers=%d delta=%v after deleting all", ix.Len(), ix.NumLayers(), ix.HasDelta())
	}
	// The empty index still serves, and grows back through a fold.
	got, _, err := ix.TopN([]float64{1, -1}, 5)
	if err != nil || len(got) != 0 {
		t.Fatalf("query on the emptied index: %v, %v", got, err)
	}
	refill := mkRecords(pts[:30])
	if err := insertFold(ix, refill); err != nil {
		t.Fatal(err)
	}
	checkLayerInvariant(t, ix, 30)
	got, _, err = ix.TopN([]float64{1, -1}, 30)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "refilled", got, bruteRank(refill, []float64{1, -1}))
}

// TestDeleteBatchExposure pins the case that breaks naive
// strip-and-reattach maintenance: deleting a deep-layer vertex exposes
// points of the next layer, which must be promoted.
func TestDeleteBatchExposure(t *testing.T) {
	// Construct nested squares: layer k is a square of radius 10-k.
	var recs []Record
	id := uint64(1)
	for k := 0; k < 6; k++ {
		r := float64(10 - k)
		for _, c := range [][2]float64{{r, 0}, {-r, 0}, {0, r}, {0, -r}} {
			recs = append(recs, Record{ID: id, Vector: []float64{c[0], c[1]}})
			id++
		}
	}
	ix, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != 6 {
		t.Fatalf("nested squares produced %d layers", ix.NumLayers())
	}
	// Victims: the (+r,0) corner of layers 3 and 4 — the layers below
	// lose cover in the +x direction and must be promoted.
	var victims []uint64
	for _, k := range []int{2, 3} {
		for _, r := range ix.Layer(k) {
			v, _ := ix.Vector(r.ID)
			if v[0] > 0 && v[1] == 0 {
				victims = append(victims, r.ID)
			}
		}
	}
	if len(victims) != 2 {
		t.Fatalf("victim selection found %d", len(victims))
	}
	if err := deleteFold(ix, victims); err != nil {
		t.Fatal(err)
	}
	checkLayerInvariant(t, ix, len(recs)-2)
	checkQueriesMatchOracle(t, ix)
}

func TestDeleteBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := workload.Points(workload.Gaussian, 250, 3, 74)
	a, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for len(ids) < 40 {
		id := uint64(rng.Intn(250) + 1)
		dup := false
		for _, x := range ids {
			if x == id {
				dup = true
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	if err := deleteFold(a, ids); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Same record sets; query answers must agree exactly.
	checkLayerInvariant(t, a, 210)
	checkLayerInvariant(t, b, 210)
	for trial := 0; trial < 10; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ra, _, err := a.TopN(w, 15)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.TopN(w, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i].Score != rb[i].Score {
				t.Fatalf("trial %d rank %d: batch %v sequential %v", trial, i, ra[i].Score, rb[i].Score)
			}
		}
	}
}

// TestFlatFoldAtomicOnHullFailure: a hull failure during a flat fold
// must leave the receiver exactly as it was — delta, layering and
// answers — so the fold can be retried.
func TestFlatFoldAtomicOnHullFailure(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 300, 3, 41)
	target := []float64{40, -40, 40}
	if err := ix.InsertDelta([]Record{
		{ID: 5001, Vector: target},
		{ID: 5002, Vector: []float64{0.1, 0.2, 0.3}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDelta([]uint64{3, 50, 120}, false); err != nil {
		t.Fatal(err)
	}
	deltaLen, content, layers := ix.DeltaLen(), ix.ContentFingerprint(), ix.Fingerprint()

	computeHull = failingHull(target)
	t.Cleanup(func() { computeHull = hull.Compute })
	if err := ix.Compact(); err == nil {
		t.Fatal("fold succeeded despite the injected hull failure")
	}
	if got := ix.DeltaLen(); got != deltaLen {
		t.Fatalf("failed fold changed the delta: %d pending, want %d", got, deltaLen)
	}
	if ix.ContentFingerprint() != content || ix.Fingerprint() != layers {
		t.Fatal("failed fold changed the index")
	}
	w := []float64{0.3, -0.5, 0.8}
	want := bruteRank(ix.Records(), w)[:20]
	got, _, err := ix.TopN(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "after failed fold", got, want)

	computeHull = hull.Compute
	if err := ix.Compact(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if ix.HasDelta() || ix.ContentFingerprint() != content {
		t.Fatal("retried fold lost content")
	}
	got, _, err = ix.TopN(w, 20)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "after retried fold", got, want)
}

// TestFlatFoldMatchesBuild is the fold's property: after random delta
// inserts, deletes and updates, a flat fold layers the live records
// exactly as a fresh Build of them does, and answers bit-identically
// to brute force.
func TestFlatFoldMatchesBuild(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for trial := 0; trial < 4; trial++ {
			seed := int64(100*d + trial)
			// A source apart from the corpus seed keeps the random
			// vectors from duplicating corpus points (exact ties may
			// swap IDs, see the hull package comment).
			rng := rand.New(rand.NewSource(-seed))
			ix := buildRand(t, workload.Gaussian, 150+rng.Intn(150), d, seed)
			nextID := uint64(10_000)
			for op := 0; op < 1+rng.Intn(60); op++ {
				recs := ix.Records()
				switch rng.Intn(3) {
				case 0:
					vec := make([]float64, d)
					for j := range vec {
						vec[j] = 2 * rng.NormFloat64()
					}
					nextID++
					if err := ix.InsertDelta([]Record{{ID: nextID, Vector: vec}}); err != nil {
						t.Fatal(err)
					}
				case 1:
					if _, err := ix.DeleteDelta([]uint64{recs[rng.Intn(len(recs))].ID}, false); err != nil {
						t.Fatal(err)
					}
				default:
					vec := make([]float64, d)
					for j := range vec {
						vec[j] = rng.NormFloat64()
					}
					if err := ix.UpdateDelta(recs[rng.Intn(len(recs))].ID, vec); err != nil {
						t.Fatal(err)
					}
				}
			}
			live := ix.Records()
			if err := ix.Compact(); err != nil {
				t.Fatalf("d=%d trial %d: %v", d, trial, err)
			}
			sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
			want, err := Build(live, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ix.Fingerprint() != want.Fingerprint() {
				t.Fatalf("d=%d trial %d: fold layered differently from Build", d, trial)
			}
			for q := 0; q < 5; q++ {
				w := randWeights(rng, d)
				got, _, err := ix.TopN(w, 25)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, "fold vs brute", got, bruteRank(live, w)[:25])
			}
		}
	}
}
