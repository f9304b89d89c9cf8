package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// checkLayerInvariant verifies the optimally-linearly-ordered property
// over many random directions plus the partition invariant, the two
// things every maintenance operation must preserve.
func checkLayerInvariant(t *testing.T, ix *Index, wantLen int) {
	t.Helper()
	total := 0
	for k := 0; k < ix.NumLayers(); k++ {
		if ix.LayerSize(k) == 0 {
			t.Fatalf("empty layer %d", k)
		}
		total += ix.LayerSize(k)
	}
	if total != wantLen || ix.Len() != wantLen {
		t.Fatalf("layers cover %d records, Len()=%d, want %d", total, ix.Len(), wantLen)
	}
	rng := rand.New(rand.NewSource(321))
	w := make([]float64, ix.Dim())
	for trial := 0; trial < 30; trial++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		prev := 0.0
		for k := 0; k < ix.NumLayers(); k++ {
			best := 0.0
			for i, r := range ix.Layer(k) {
				s := geom.Dot(w, r.Vector)
				if i == 0 || s > best {
					best = s
				}
			}
			if k > 0 && best > prev+1e-9 {
				t.Fatalf("trial %d: layer %d max %v exceeds layer %d max %v", trial, k, best, k-1, prev)
			}
			prev = best
		}
	}
}

// checkQueriesMatchOracle compares TopN against brute force on the
// current (possibly mutated) record set.
func checkQueriesMatchOracle(t *testing.T, ix *Index) {
	t.Helper()
	recs := ix.Records()
	pts := make([][]float64, len(recs))
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		pts[i] = r.Vector
		ids[i] = r.ID
	}
	rng := rand.New(rand.NewSource(654))
	w := make([]float64, ix.Dim())
	for trial := 0; trial < 10; trial++ {
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		n := 1 + rng.Intn(20)
		got, _, err := ix.TopN(w, n)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle on the live set (IDs are not 1..n here, so inline).
		type sc struct{ s float64 }
		scores := make([]float64, len(pts))
		for i, p := range pts {
			scores[i] = geom.Dot(w, p)
		}
		for i := 0; i < len(scores); i++ {
			for j := i + 1; j < len(scores); j++ {
				if scores[j] > scores[i] {
					scores[i], scores[j] = scores[j], scores[i]
				}
			}
			if i >= n {
				break
			}
		}
		if len(got) != min(n, len(pts)) {
			t.Fatalf("got %d results, want %d", len(got), min(n, len(pts)))
		}
		for i, r := range got {
			if diff := r.Score - scores[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, r.Score, scores[i])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestInsertOutsideEverything(t *testing.T) {
	pts := workload.Points(workload.Uniform, 200, 2, 1)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A point far outside must join layer 0.
	if err := ix.Insert(Record{ID: 9001, Vector: []float64{10, 10}}); err != nil {
		t.Fatal(err)
	}
	if k, ok := ix.LayerOf(9001); !ok || k != 0 {
		t.Fatalf("far point in layer %d", k)
	}
	checkLayerInvariant(t, ix, 201)
	checkQueriesMatchOracle(t, ix)
}

func TestInsertDeepInside(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 300, 2, 2)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	layersBefore := ix.NumLayers()
	// The centroid region is deep inside: the record lands well past the
	// middle layer (the exact depth depends on where the small innermost
	// hulls happen to sit).
	if err := ix.Insert(Record{ID: 9002, Vector: []float64{0.0001, -0.0002}}); err != nil {
		t.Fatal(err)
	}
	k, _ := ix.LayerOf(9002)
	if k < layersBefore/2 {
		t.Errorf("central point landed at layer %d of %d", k, ix.NumLayers())
	}
	checkLayerInvariant(t, ix, 301)
}

func TestInsertDuplicateID(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 1}, {1, 0}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Record{ID: 1, Vector: []float64{5, 5}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := ix.Insert(Record{ID: 10, Vector: []float64{5}}); err == nil {
		t.Error("wrong dimension accepted")
	}
	checkLayerInvariant(t, ix, 3)
}

func TestInsertManyMatchesRebuild(t *testing.T) {
	// After a stream of inserts, the index must behave exactly like one
	// built from scratch on the final record set (same query answers —
	// layer boundaries may differ only in tie handling).
	base := workload.Points(workload.Gaussian, 150, 3, 3)
	extra := workload.Points(workload.Gaussian, 60, 3, 4)
	ix, err := Build(mkRecords(base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range extra {
		if err := ix.Insert(Record{ID: uint64(1000 + i), Vector: p}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	checkLayerInvariant(t, ix, 210)
	checkQueriesMatchOracle(t, ix)

	all := append(append([][]float64{}, base...), extra...)
	rebuilt, err := Build(mkRecords(all), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.NumLayers(), rebuilt.NumLayers(); got != want {
		t.Errorf("incremental %d layers, rebuild %d (generic-position data should agree)", got, want)
	}
}

func TestDeleteBasic(t *testing.T) {
	pts := workload.Points(workload.Uniform, 250, 2, 5)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a vertex of the outermost layer: inner records must be
	// promoted.
	victim := ix.Layer(0)[0].ID
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.LayerOf(victim); ok {
		t.Error("deleted record still present")
	}
	checkLayerInvariant(t, ix, 249)
	checkQueriesMatchOracle(t, ix)
}

func TestDeleteErrors(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {1, 1}, {1, 0}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(999); err == nil {
		t.Error("deleting unknown ID succeeded")
	}
}

func TestDeleteInnermost(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}, {1, 1}}
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != 2 {
		t.Fatalf("layers = %d", ix.NumLayers())
	}
	if err := ix.Delete(5); err != nil { // the center point
		t.Fatal(err)
	}
	if ix.NumLayers() != 1 {
		t.Errorf("layers after deleting inner singleton = %d, want 1", ix.NumLayers())
	}
	checkLayerInvariant(t, ix, 4)
}

func TestDeleteAllOneByOne(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 60, 2, 6)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	remaining := 60
	for remaining > 0 {
		recs := ix.Records()
		victim := recs[rng.Intn(len(recs))].ID
		if err := ix.Delete(victim); err != nil {
			t.Fatalf("delete %d with %d remaining: %v", victim, remaining, err)
		}
		remaining--
		if ix.Len() != remaining {
			t.Fatalf("Len = %d, want %d", ix.Len(), remaining)
		}
		if remaining > 0 && remaining%10 == 0 {
			checkLayerInvariant(t, ix, remaining)
		}
	}
	if ix.NumLayers() != 0 {
		t.Errorf("empty index has %d layers", ix.NumLayers())
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := workload.Points(workload.Uniform, 100, 3, 7)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nextID := uint64(10000)
	for step := 0; step < 120; step++ {
		if rng.Float64() < 0.5 && ix.Len() > 10 {
			recs := ix.Records()
			if err := ix.Delete(recs[rng.Intn(len(recs))].ID); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		} else {
			v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if err := ix.Insert(Record{ID: nextID, Vector: v}); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			nextID++
		}
	}
	checkLayerInvariant(t, ix, ix.Len())
	checkQueriesMatchOracle(t, ix)
}

func TestUpdateMovesRecord(t *testing.T) {
	pts := workload.Points(workload.Uniform, 150, 2, 10)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Move a random record far outside: it must become layer 0.
	if err := ix.Update(42, []float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	if k, ok := ix.LayerOf(42); !ok || k != 0 {
		t.Fatalf("updated record at layer %d,%v", k, ok)
	}
	if v, _ := ix.Vector(42); !geom.Equal(v, []float64{50, 50}) {
		t.Errorf("vector not updated: %v", v)
	}
	if err := ix.Update(99999, []float64{1, 1}); err == nil {
		t.Error("update unknown ID succeeded")
	}
	if err := ix.Update(42, []float64{1}); err == nil {
		t.Error("update with wrong dimension succeeded")
	}
	checkLayerInvariant(t, ix, 150)
}

func TestInsertBatch(t *testing.T) {
	pts := workload.Points(workload.Gaussian, 200, 2, 11)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 40)
	newPts := workload.Points(workload.Gaussian, 40, 2, 12)
	for i, p := range newPts {
		batch[i] = Record{ID: uint64(5000 + i), Vector: p}
	}
	if err := insertFold(ix, batch); err != nil {
		t.Fatal(err)
	}
	checkLayerInvariant(t, ix, 240)
	checkQueriesMatchOracle(t, ix)

	// Errors must leave the index unmodified.
	if err := insertFold(ix, []Record{{ID: 5000, Vector: []float64{0, 0}}}); err == nil {
		t.Error("batch with duplicate ID accepted")
	}
	if err := insertFold(ix, []Record{{ID: 6000, Vector: []float64{0}}}); err == nil {
		t.Error("batch with bad dimension accepted")
	}
	// A duplicate within the batch itself must be rejected before any
	// change: accepting it would surface the ID twice in rankings.
	if err := insertFold(ix, []Record{
		{ID: 7000, Vector: []float64{1, 1}},
		{ID: 7000, Vector: []float64{2, 2}},
	}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("intra-batch duplicate: err = %v, want ErrDuplicateID", err)
	}
	if ix.HasDelta() {
		t.Error("rejected batch left a pending delta")
	}
	checkLayerInvariant(t, ix, 240)
	for _, r := range ix.Records() {
		if r.ID == 7000 {
			t.Fatal("rejected record visible in Records")
		}
	}
}

func TestPositionReuseAfterDelete(t *testing.T) {
	ix, err := Build(mkRecords([][]float64{{0, 0}, {4, 0}, {0, 4}, {4, 4}, {2, 2}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(ix.pts)
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(Record{ID: 50, Vector: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}
	if len(ix.pts) != before {
		t.Errorf("freed position not reused: %d slots, was %d", len(ix.pts), before)
	}
	checkLayerInvariant(t, ix, 5)
}
