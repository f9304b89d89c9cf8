package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// requireSlabWalk asserts that ix answers through its columnar slabs —
// one slab per base layer holding exactly that layer's records — and
// that TopN over several weight vectors matches a brute-force scan of
// the live record set (delta included) score bit for score bit, with
// every reported ID scoring what it claims.
func requireSlabWalk(t *testing.T, label string, ix *Index) {
	t.Helper()
	c := ix.columns()
	if len(c.slabs) != ix.NumLayers() {
		t.Fatalf("%s: %d slabs for %d layers", label, len(c.slabs), ix.NumLayers())
	}
	for k := range c.slabs {
		sl := &c.slabs[k]
		want := make(map[uint64]bool, ix.LayerSize(k))
		for _, r := range ix.Layer(k) {
			want[r.ID] = true
		}
		if len(sl.ids) != len(want) || c.maxLayer < len(sl.ids) {
			t.Fatalf("%s: layer %d slab has %d rows, layer %d records (max %d)", label, k, len(sl.ids), len(want), c.maxLayer)
		}
		for _, id := range sl.ids {
			if !want[id] {
				t.Fatalf("%s: layer %d slab holds record %d from another layer", label, k, id)
			}
		}
	}
	if (c.shells != nil) != ix.ShellPruning() {
		t.Fatalf("%s: shell tables present=%v in shell mode %v", label, c.shells != nil, ix.ShellPruning())
	}

	recs := ix.Records()
	vec := make(map[uint64][]float64, len(recs))
	for _, r := range recs {
		vec[r.ID] = r.Vector
	}
	for qi, w := range workload.QueryWeights(6, ix.Dim(), 41) {
		n := 1 + 7*qi
		got, _, err := ix.TopN(w, n)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, 0, len(recs))
		for _, r := range recs {
			scores = append(scores, geom.Dot(w, r.Vector))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		if want := min(n, len(scores)); len(got) != want {
			t.Fatalf("%s q%d: %d results, want %d", label, qi, len(got), want)
		}
		for i, r := range got {
			if math.Float64bits(r.Score) != math.Float64bits(scores[i]) {
				t.Fatalf("%s q%d rank %d: score %v, brute force %v", label, qi, i, r.Score, scores[i])
			}
			if v, ok := vec[r.ID]; !ok || math.Float64bits(geom.Dot(w, v)) != math.Float64bits(r.Score) {
				t.Fatalf("%s q%d rank %d: id %d does not score %v", label, qi, i, r.ID, r.Score)
			}
		}
	}
}

// TestEveryIndexAnswersThroughSlabs: the columnar slab walk is the only
// query path, so every index a constructor, clone or mutator hands back
// — in plain and shell mode — must answer through slabs that describe
// its current layering, and match brute force.
func TestEveryIndexAnswersThroughSlabs(t *testing.T) {
	for _, shells := range []bool{false, true} {
		opt := Options{Seed: 4, Shells: shells}
		label := func(step string) string { return fmt.Sprintf("shells=%v %s", shells, step) }
		pts := workload.Points(workload.Gaussian, 600, 3, 8)

		ix, err := Build(mkRecords(pts), opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("Build"), ix)

		layers := make([][]Record, ix.NumLayers())
		for k := range layers {
			layers[k] = ix.Layer(k)
		}
		fl, err := FromLayers(layers, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("FromLayers"), fl)
		requireSlabWalk(t, label("FromColumnar"), roundTripColumnar(t, ix, opt))

		// Structural mutators, each followed by a clone of the result.
		steps := []struct {
			name string
			do   func(*Index) error
		}{
			{"Insert", func(x *Index) error { return x.Insert(Record{ID: 9001, Vector: []float64{3, 3, 3}}) }},
			{"InsertDelta+Compact", func(x *Index) error {
				return insertFold(x, []Record{{ID: 9002, Vector: []float64{-3, 1, 0}}, {ID: 9003, Vector: []float64{0.1, 0.2, 0.3}}})
			}},
			{"Delete", func(x *Index) error { return x.Delete(9001) }},
			{"DeleteDelta+Compact", func(x *Index) error { return deleteFold(x, []uint64{1, 2, 3}) }},
			{"Update", func(x *Index) error { return x.Update(10, []float64{-2, -2, 4}) }},
			{"SetShellPruning", func(x *Index) error { x.SetShellPruning(!shells); x.SetShellPruning(shells); return nil }},
		}
		for _, st := range steps {
			if err := st.do(ix); err != nil {
				t.Fatalf("%s: %v", label(st.name), err)
			}
			requireSlabWalk(t, label(st.name), ix)
			requireSlabWalk(t, label(st.name+"+Clone"), ix.Clone())
		}

		// The delta write path: a shallow clone, its delta mutators, and
		// both ways of folding the buffer back.
		dc := ix.CloneDelta()
		requireSlabWalk(t, label("CloneDelta"), dc)
		if err := dc.InsertDelta([]Record{{ID: 9100, Vector: []float64{5, -1, 2}}}); err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("InsertDelta"), dc)
		if _, err := dc.DeleteDelta([]uint64{20, 21}, false); err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("DeleteDelta"), dc)
		if err := dc.UpdateDelta(30, []float64{1, 4, -1}); err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("UpdateDelta"), dc)
		cc, err := dc.CompactedClone()
		if err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("CompactedClone"), cc)
		if err := dc.Compact(); err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("Compact"), dc)

		// An empty index grows through a fold.
		em, err := Empty(3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := insertFold(em, mkRecords(pts[:40])); err != nil {
			t.Fatal(err)
		}
		requireSlabWalk(t, label("Empty+InsertDelta+Compact"), em)
	}
}

// TestConcurrentFirstQueriesAfterMutation: a structural mutation defers
// the slabs to the first query, and several goroutines may make that
// first query at once on a shared index. The once-latch must build the
// layout exactly once and every reader must see it whole (run under
// -race in CI), returning the same answer as a fresh build would.
func TestConcurrentFirstQueriesAfterMutation(t *testing.T) {
	defer func(v int) { scoreParallelMin = v }(scoreParallelMin)
	scoreParallelMin = 64
	for _, shells := range []bool{false, true} {
		pts := workload.Points(workload.Gaussian, 1500, 3, 19)
		ix, err := Build(mkRecords(pts), Options{Seed: 2, Shells: shells})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(Record{ID: 7777, Vector: []float64{0.5, 0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
		if ix.cols != nil {
			t.Fatal("mutation left the slabs in place")
		}
		ref, err := Build(ix.Records(), Options{Seed: 2, Shells: shells})
		if err != nil {
			t.Fatal(err)
		}
		ws := workload.QueryWeights(8, 3, 5)

		const readers = 8
		got := make([][]Result, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < readers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				res, _, err := ix.TopN(ws[g], 12)
				if err != nil {
					t.Error(err)
				}
				got[g] = res
			}(g)
		}
		start.Done()
		done.Wait()

		for g := 0; g < readers; g++ {
			want, _, err := ref.TopN(ws[g], 12)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[g]) != len(want) {
				t.Fatalf("shells=%v reader %d: %d results, want %d", shells, g, len(got[g]), len(want))
			}
			for i := range want {
				if got[g][i].ID != want[i].ID || math.Float64bits(got[g][i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("shells=%v reader %d rank %d: %+v, rebuilt index says %+v", shells, g, i, got[g][i], want[i])
				}
			}
		}
	}
}
