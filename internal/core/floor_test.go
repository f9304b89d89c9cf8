package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridRecords draws n records on the integer grid {0..side-1}^d with
// IDs first, first+1, ...: integer coordinates and integer weights
// score exactly, so many records tie — within a layer, across layers,
// and between the delta and the base.
func gridRecords(rng *rand.Rand, n, d, side int, first uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		v := make([]float64, d)
		for j := range v {
			v[j] = float64(rng.Intn(side))
		}
		recs[i] = Record{ID: first + uint64(i), Vector: v}
	}
	return recs
}

// searchAll drains a searcher with the given limit (<= 0: unbounded).
func searchAll(ix *Index, w []float64, limit int) ([]Result, Stats) {
	s := ix.NewSearcher(w, limit)
	var out []Result
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, s.Stats()
}

// tieExact checks an answer against the brute-force ranking want of the
// same live set, at ties: the score at every rank is bit-identical, and
// every record scoring strictly above the last delivered score is
// delivered, so only the choice among records tied at that boundary is
// left open — the walk resolves a tie between a layer maximum and an
// equal deeper record (a duplicate point, or one on the hull's face)
// by layer, not by ID.
func tieExact(t *testing.T, label string, got, want []Result, live map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	if len(got) == 0 {
		return
	}
	seen := make(map[uint64]bool, len(got))
	for i, r := range got {
		if math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d scores %v, brute force %v", label, i, r.Score, want[i].Score)
		}
		if sc, ok := live[r.ID]; !ok || sc != r.Score || seen[r.ID] {
			t.Fatalf("%s: rank %d delivers %+v: not a live record with that score, or a repeat", label, i, r)
		}
		seen[r.ID] = true
	}
	last := got[len(got)-1].Score
	for _, r := range want {
		if r.Score > last && !seen[r.ID] {
			t.Fatalf("%s: record %d (score %v > boundary %v) missing", label, r.ID, r.Score, last)
		}
	}
}

// TestTieHeavyFloorExactness pins the strict comparisons of the
// threshold-first kernel — the candidate floor, the collector cut, the
// shell bucket cut and the deferred tombstone check — on corpora where
// exact score ties are the rule. The floored walk must deliver exactly
// what the unfloored walk delivers (IDs, score bits and layers: a
// non-strict floor would drop a record tied with the floor that wins
// on ID), both must match brute force at ties (see tieExact), and the
// floored walk may never score more records than the unfloored one (on
// the plain walk exactly as many, with identical stats). Dims 2–4,
// limits {1, 10, 100, unbounded}, shells on and off, and deltas of
// inserts only, tombstones only (including the layer maxima of the
// first layers, so a tombstone ties or beats the live layer maximum),
// and both.
func TestTieHeavyFloorExactness(t *testing.T) {
	defer func() { candidateFloors = true }()
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(4200 + d)))
		base := gridRecords(rng, 500, d, 6, 1)
		ix, err := Build(base, Options{Seed: 3, Shells: true})
		if err != nil {
			t.Fatal(err)
		}
		inserts := gridRecords(rng, 60, d, 6, 100_000)
		// Every other record of the three outermost layers: layer
		// maxima for many weight vectors, and ties of the survivors.
		var dels []uint64
		for k := 0; k < 3 && k < ix.NumLayers(); k++ {
			for i, r := range ix.Layer(k) {
				if i%2 == 0 {
					dels = append(dels, r.ID)
				}
			}
		}
		for _, shape := range []struct {
			name     string
			ins, del bool
		}{{"none", false, false}, {"inserts", true, false}, {"tombstones", false, true}, {"both", true, true}} {
			dc := ix.CloneDelta()
			dead := map[uint64]bool{}
			var live []Record
			scoreOf := map[uint64]float64{}
			if shape.del {
				if _, err := dc.DeleteDelta(dels, false); err != nil {
					t.Fatal(err)
				}
				for _, id := range dels {
					dead[id] = true
				}
			}
			for _, r := range base {
				if !dead[r.ID] {
					live = append(live, r)
				}
			}
			if shape.ins {
				if err := dc.InsertDelta(inserts); err != nil {
					t.Fatal(err)
				}
				live = append(live, inserts...)
			}
			for q := 0; q < 12; q++ {
				w := make([]float64, d)
				for j := range w {
					w[j] = float64(rng.Intn(7) - 3)
				}
				want := bruteRank(live, w)
				for _, r := range want {
					scoreOf[r.ID] = r.Score
				}
				for _, shells := range []bool{false, true} {
					dc.SetShellPruning(shells)
					for _, limit := range []int{1, 10, 100, 0} {
						label := fmt.Sprintf("%dD %s shells=%v limit=%d w=%v", d, shape.name, shells, limit, w)
						candidateFloors = false
						plain, plainSt := searchAll(dc, w, limit)
						candidateFloors = true
						got, st := searchAll(dc, w, limit)
						exp := want
						if limit > 0 && limit < len(exp) {
							exp = exp[:limit]
						}
						resultsBitIdentical(t, label+": floored vs unfloored", got, plain)
						tieExact(t, label, got, exp, scoreOf)
						if st.RecordsEvaluated > plainSt.RecordsEvaluated {
							t.Fatalf("%s: floored walk scored %d records, unfloored %d", label, st.RecordsEvaluated, plainSt.RecordsEvaluated)
						}
						if st.ShellLayers == 0 && st != plainSt {
							t.Fatalf("%s: plain-walk stats %+v, unfloored %+v", label, st, plainSt)
						}
					}
				}
			}
		}
	}
}

// TestRankDeltaKeepsTopLimit: the delta merge stream holds exactly the
// delta's own top-limit on the total order (all of it for an unbounded
// stream), ties resolved by ID, while the stats count every delta
// record as scored.
func TestRankDeltaKeepsTopLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix, err := Build(gridRecords(rng, 200, 3, 5, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := gridRecords(rng, 150, 3, 5, 1000)
	dc := ix.CloneDelta()
	if err := dc.InsertDelta(ins); err != nil {
		t.Fatal(err)
	}
	w := []float64{1, -2, 1}
	want := bruteRank(ins, w)
	for _, limit := range []int{1, 7, 150, 400, 0} {
		s := dc.NewSearcher(w, limit)
		exp := want
		if limit > 0 && limit < len(exp) {
			exp = exp[:limit]
		}
		for i := range exp {
			exp[i].Layer = -1
		}
		resultsBitIdentical(t, fmt.Sprintf("delta stream, limit %d", limit), s.deltaRank, exp)
		if got := s.Stats().RecordsEvaluated; got != len(ins) {
			t.Fatalf("limit %d: %d delta records counted, want %d", limit, got, len(ins))
		}
	}
}
