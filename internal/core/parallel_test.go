package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/workload"
)

// layersEqual asserts two indexes carry byte-identical layer
// partitions: same layer count, sizes, and member IDs in storage order.
func layersEqual(t *testing.T, ref, got *Index, label string) {
	t.Helper()
	if ref.NumLayers() != got.NumLayers() {
		t.Fatalf("%s: %d layers vs %d", label, ref.NumLayers(), got.NumLayers())
	}
	for k := 0; k < ref.NumLayers(); k++ {
		a, b := ref.Layer(k), got.Layer(k)
		if len(a) != len(b) {
			t.Fatalf("%s: layer %d sizes %d vs %d", label, k, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("%s: layer %d slot %d: ID %d vs %d", label, k, i, a[i].ID, b[i].ID)
			}
		}
	}
	if ref.Joggled() != got.Joggled() {
		t.Fatalf("%s: joggled %v vs %v", label, ref.Joggled(), got.Joggled())
	}
}

// TestBuildParallelDeterminism is the acceptance property of the
// parallel build: for a fixed seed the layer partition must be
// byte-identical at every worker count. 4000 points keeps the partition
// scan above the hull's fork threshold so the pool really runs.
func TestBuildParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		dist workload.Distribution
		n, d int
	}{
		{workload.Gaussian, 4000, 3},
		{workload.Gaussian, 4000, 4},
		{workload.Uniform, 4000, 3},
	} {
		recs := mkRecords(workload.Points(tc.dist, tc.n, tc.d, int64(tc.n+tc.d)))
		ref, err := Build(recs, Options{Seed: 11, Parallelism: 1})
		if err != nil {
			t.Fatalf("%v %dD sequential: %v", tc.dist, tc.d, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Build(recs, Options{Seed: 11, Parallelism: workers})
			if err != nil {
				t.Fatalf("%v %dD workers=%d: %v", tc.dist, tc.d, workers, err)
			}
			layersEqual(t, ref, got, fmt.Sprintf("%v %dD workers=%d", tc.dist, tc.d, workers))
		}
	}
}

// TestMaintenanceParallelDeterminism applies the same mutation sequence
// to sequential and parallel indexes and requires identical layerings
// afterwards — the property that makes the serving layer's background
// folds independent of the worker bound.
func TestMaintenanceParallelDeterminism(t *testing.T) {
	recs := mkRecords(workload.Points(workload.Gaussian, 3000, 3, 99))
	mutate := func(ix *Index) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0:
				v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				if err := ix.Insert(Record{ID: uint64(10_000 + i), Vector: v}); err != nil {
					t.Fatal(err)
				}
			case 1:
				_ = ix.Delete(uint64(rng.Intn(3000) + 1)) // already-deleted IDs are fine to skip
			case 2:
				id := uint64(rng.Intn(3000) + 1)
				v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				_ = ix.Update(id, v) // unknown IDs (already deleted) are fine
			}
		}
	}
	ref, err := Build(recs, Options{Seed: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mutate(ref)
	got, err := Build(recs, Options{Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	mutate(got)
	layersEqual(t, ref, got, "after mixed maintenance")
}

// TestSearcherParallelScoring drives the pooled scoring path (threshold
// lowered so small layers qualify) and checks results equal both the
// sequential searcher and a brute-force oracle.
func TestSearcherParallelScoring(t *testing.T) {
	defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
	scoreParallelMin = 16

	pts := workload.Points(workload.Gaussian, 2000, 3, 17)
	seq, err := Build(mkRecords(pts), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(mkRecords(pts), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		for _, n := range []int{1, 7, 40, 300} {
			want, _, err := seq.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := par.TopN(w, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d results vs %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d rank %d: %+v vs %+v", n, i, got[i], want[i])
				}
			}
			checkSameScores(t, got, bruteTopN(pts, w, n))
		}
	}
}

// TestParallelBuildAndConcurrentQueriesRace is the -race stress test:
// parallel builds running while GOMAXPROCS-scaled query workers hammer
// a shared index whose searchers score layers on the worker pool.
// Queries against one immutable index are documented as safe for
// concurrent use; this asserts the new fork/join scoring keeps them so.
func TestParallelBuildAndConcurrentQueriesRace(t *testing.T) {
	defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
	scoreParallelMin = 8

	n := 3000
	if testing.Short() {
		n = 800
	}
	pts := workload.Points(workload.Gaussian, n, 3, 31)
	shared, err := Build(mkRecords(pts), Options{Seed: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)

	// One goroutine keeps building fresh parallel indexes (hull worker
	// pool active) while the others query the shared one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 3; b++ {
			if _, err := Build(mkRecords(pts[:n/2]), Options{Seed: int64(b), Parallelism: 4}); err != nil {
				errc <- err
				return
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < 30; q++ {
				w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				res, _, err := shared.TopN(w, 20)
				if err != nil {
					errc <- err
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						errc <- fmt.Errorf("goroutine %d: out-of-order ranks", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
