package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestTopNDimMismatchBothPaths is the regression test for a
// dimension check that ran after a single-axis shortcut: a
// wrong-dimension weight vector must fail with the dimension-mismatch
// error through both query paths — TopN and TopNBatch — before any
// scoring.
func TestTopNDimMismatchBothPaths(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 200, 3, 5)
	bad := []float64{0, 1} // single non-zero weight, wrong dimension

	_, _, err := ix.TopN(bad, 5)
	if !errors.Is(err, errDim) {
		t.Fatalf("TopN: got %v, want errDim", err)
	}
	_, _, err2 := ix.TopNBatch([][]float64{{0, 1, 0}, bad}, 5)
	if !errors.Is(err2, errDim) {
		t.Fatalf("TopNBatch: got %v, want errDim", err2)
	}
	// Too many zero weights but correct dimension still works.
	if _, _, err := ix.TopN([]float64{0, 1, 0}, 5); err != nil {
		t.Fatalf("degenerate query: %v", err)
	}
}

// TestCloneIsolation: maintenance on a clone must not perturb the
// original's contents or query answers.
func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := workload.Points(workload.Gaussian, 600, 3, 31)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, 0.35, 0.25}
	before, _, err := ix.TopN(w, 50)
	if err != nil {
		t.Fatal(err)
	}

	cp := ix.Clone()
	if cp.Len() != ix.Len() || cp.NumLayers() != ix.NumLayers() {
		t.Fatalf("clone shape mismatch: %d/%d vs %d/%d",
			cp.Len(), cp.NumLayers(), ix.Len(), ix.NumLayers())
	}
	// Hammer the clone with maintenance.
	for i := 0; i < 40; i++ {
		id := uint64(10_000 + i)
		vec := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if err := cp.Insert(Record{ID: id, Vector: vec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.DeleteBatch([]uint64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}

	after, _, err := ix.TopN(w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("original changed length: %d vs %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("original result %d changed: %+v vs %+v", i, after[i], before[i])
		}
	}
	// And the clone answers consistently with its own contents.
	if cp.Len() != ix.Len()+40-5 {
		t.Fatalf("clone length %d, want %d", cp.Len(), ix.Len()+40-5)
	}
	dirs := make([][]float64, 20)
	for i := range dirs {
		dirs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	if err := cp.VerifyOrdering(dirs, 1e-9); err != nil {
		t.Fatalf("clone ordering: %v", err)
	}
}

// TestCloneQueriesMatch: a fresh clone must answer exactly like the
// original.
func TestCloneQueriesMatch(t *testing.T) {
	pts := workload.Points(workload.Uniform, 500, 2, 17)
	ix, err := Build(mkRecords(pts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := ix.Clone()
	for _, w := range [][]float64{{1, 0.2}, {-0.5, 1}, {0.3, 0.3}} {
		a, _, err := ix.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := cp.TopN(w, 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// TestSearcherContextCancel: once the context is cancelled, the searcher
// stops evaluating layers and reports the cause.
func TestSearcherContextCancel(t *testing.T) {
	ix := buildRand(t, workload.Gaussian, 2000, 2, 23)
	if ix.NumLayers() < 5 {
		t.Fatalf("want a deep index, got %d layers", ix.NumLayers())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := ix.NewSearcher([]float64{0.7, 0.3}, 0).WithContext(ctx)
	if _, ok := s.Next(); !ok {
		t.Fatal("first result missing")
	}
	if s.Err() != nil {
		t.Fatalf("unexpected err before cancel: %v", s.Err())
	}
	layersBefore := s.Stats().LayersAccessed
	cancel()
	// Drain: must terminate immediately without touching more layers.
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
		if n > len(ix.layers[0]) {
			t.Fatal("searcher kept producing after cancel")
		}
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
	if got := s.Stats().LayersAccessed; got != layersBefore {
		t.Fatalf("layers accessed after cancel: %d -> %d", layersBefore, got)
	}
	// A nil-context searcher still runs to completion.
	s2 := ix.NewSearcher([]float64{0.7, 0.3}, 5)
	for i := 0; i < 5; i++ {
		if _, ok := s2.Next(); !ok {
			t.Fatalf("result %d missing", i)
		}
	}
	if s2.Err() != nil {
		t.Fatalf("unexpected err: %v", s2.Err())
	}
}
