package core

import "fmt"

// TopNBatch answers several top-N queries, returning per-query results
// and stats positionally. Each query runs the same walk a solo TopN
// runs, so results and stats are identical to independent TopN calls.
// Any invalid weight vector fails the whole batch before any work, so
// a batch is all-or-nothing like a single query.
func (ix *Index) TopNBatch(weightsList [][]float64, n int) ([][]Result, []Stats, error) {
	for qi, w := range weightsList {
		if err := ValidateWeights(w, ix.dim); err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d: %w", qi, err)
		}
	}
	results := make([][]Result, len(weightsList))
	stats := make([]Stats, len(weightsList))
	for q, w := range weightsList {
		// Validated above, so TopN cannot fail.
		results[q], stats[q], _ = ix.TopN(w, n)
	}
	return results, stats, nil
}
