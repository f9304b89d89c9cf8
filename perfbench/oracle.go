package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// The oracle ranks by brute force on the total order the program
// promises: score descending, then id ascending, with every score the
// float64 sum w[0]*x[0] + w[1]*x[1] + ... taken left to right, so a
// correct answer matches it bit for bit.

type ranked struct {
	ID    uint64
	Score float64
}

func score(w, x []float64) float64 {
	var s float64
	for j, wj := range w {
		s += wj * x[j]
	}
	return s
}

func before(a, b ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// bruteTopN returns the first n of the ranking of (ids, vecs) under w.
func bruteTopN(ids []uint64, vecs [][]float64, w []float64, n int) []ranked {
	top := make([]ranked, 0, n+1)
	for i, x := range vecs {
		r := ranked{ID: ids[i], Score: score(w, x)}
		if len(top) == n && !before(r, top[n-1]) {
			continue
		}
		j := len(top)
		if j < n {
			top = append(top, r)
		} else {
			j = n - 1
		}
		for j > 0 && before(r, top[j-1]) {
			top[j] = top[j-1]
			j--
		}
		top[j] = r
	}
	return top
}

// bruteAll returns the complete ranking of (ids, vecs) under w.
func bruteAll(ids []uint64, vecs [][]float64, w []float64) []ranked {
	all := make([]ranked, len(ids))
	for i, x := range vecs {
		all[i] = ranked{ID: ids[i], Score: score(w, x)}
	}
	sort.Slice(all, func(a, b int) bool { return before(all[a], all[b]) })
	return all
}

// poolOracle computes the top-n of every pool vector on two goroutines.
func poolOracle(ids []uint64, vecs [][]float64, pool [][]float64, n int) [][]ranked {
	out := make([][]ranked, len(pool))
	var wg sync.WaitGroup
	const workers = 2
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pool); i += workers {
				out[i] = bruteTopN(ids, vecs, pool[i], n)
			}
		}(g)
	}
	wg.Wait()
	return out
}

// model is the set of records the server has acknowledged: the base
// corpus plus acknowledged inserts minus acknowledged deletes.
type model struct {
	live map[uint64][]float64
}

func newModel(c corpus) *model {
	m := &model{live: make(map[uint64][]float64, len(c.ids))}
	for i, id := range c.ids {
		m.live[id] = c.vecs[i]
	}
	return m
}

func (m *model) apply(o *op) {
	switch o.kind {
	case kInsert:
		m.live[o.id] = o.vec
	case kDelete:
		delete(m.live, o.id)
	}
}

func (m *model) arrays() ([]uint64, [][]float64) {
	ids := make([]uint64, 0, len(m.live))
	vecs := make([][]float64, 0, len(m.live))
	for id, v := range m.live {
		ids = append(ids, id)
		vecs = append(vecs, v)
	}
	return ids, vecs
}

// Response shapes the client decodes (ids and scores only).
type resultJSON struct {
	ID    uint64  `json:"id"`
	Score float64 `json:"score"`
}

type topnResp struct {
	Results []resultJSON `json:"results"`
}

type batchResp struct {
	Queries []topnResp `json:"queries"`
}

func sameRanking(got []resultJSON, want []ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.ID != want[i].ID || math.Float64bits(g.Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d is id %d score %v, want id %d score %v",
				i+1, g.ID, g.Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// wellOrdered checks what can be checked of an answer with no oracle (a
// read racing writes): n results, strictly in total order.
func wellOrdered(got []resultJSON, n int) error {
	if len(got) != n {
		return fmt.Errorf("%d results, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if !before(ranked(got[i-1]), ranked(got[i])) {
			return fmt.Errorf("ranks %d and %d out of order", i, i+1)
		}
	}
	return nil
}

// checkRead verifies one read response: against the pool oracle when
// the op queried pool vectors, for order alone otherwise.
func checkRead(o *op, body []byte, oracle [][]ranked, n int) error {
	switch o.kind {
	case kTopN:
		var r topnResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode topn response: %w", err)
		}
		if o.pool == nil {
			return wellOrdered(r.Results, n)
		}
		return sameRanking(r.Results, oracle[o.pool[0]])
	case kBatch:
		var r batchResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		if len(r.Queries) != batchSize {
			return fmt.Errorf("batch answered %d queries, want %d", len(r.Queries), batchSize)
		}
		for q, qr := range r.Queries {
			var err error
			if o.pool == nil {
				err = wellOrdered(qr.Results, n)
			} else {
				err = sameRanking(qr.Results, oracle[o.pool[q]])
			}
			if err != nil {
				return fmt.Errorf("batch query %d: %w", q, err)
			}
		}
	}
	return nil
}
