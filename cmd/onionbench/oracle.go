package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/topk"
)

// bruteTopN is the drivers' one oracle: every record scored in the
// index's accumulation order (Σ_j w_j·x_j, j ascending, so scores are
// bit-identical to the kernels'), ranked on the total order — score
// descending, ID ascending. Selection is by insertion; n is small.
func bruteTopN(recs []core.Record, w []float64, n int) []core.Result {
	top := make([]core.Result, 0, n)
	for _, r := range recs {
		var s float64
		for j, wj := range w {
			s += wj * r.Vector[j]
		}
		if len(top) == n && !topk.ResultGreater(s, r.ID, top[n-1].Score, top[n-1].ID) {
			continue
		}
		i := len(top)
		if len(top) < n {
			top = append(top, core.Result{})
		} else {
			i = n - 1
		}
		for i > 0 && topk.ResultGreater(s, r.ID, top[i-1].Score, top[i-1].ID) {
			top[i] = top[i-1]
			i--
		}
		top[i] = core.Result{ID: r.ID, Score: s}
	}
	return top
}

// diffRanking compares got against want bitwise — the same IDs in the
// same order with the same score bits, and with layers set the same
// layer of origin too — and describes the first difference, or returns
// nil. Oracle comparisons leave layers out: bruteTopN has none, delta
// records report -1, and a shard's layers are its own.
func diffRanking(got, want []core.Result, layers bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || (layers && g.Layer != w.Layer) {
			return fmt.Errorf("rank %d: (id %d, score %v, layer %d), want (id %d, score %v, layer %d)",
				i+1, g.ID, g.Score, g.Layer, w.ID, w.Score, w.Layer)
		}
	}
	return nil
}
