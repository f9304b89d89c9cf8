package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// postTopN issues one /v1/topn request and decodes the response.
func postTopN(t *testing.T, url string, w []float64, n int) TopNResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/topn", TopNRequest{Weights: w, N: n})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("topn status %d: %s", resp.StatusCode, b)
	}
	var out TopNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameAsCore compares wire results against core results bitwise (IDs,
// layers, and the exact float bits of every score).
func sameAsCore(got []ResultJSON, want []core.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Layer != want[i].Layer ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestCachedTopNPropertyBitIdentical sweeps dimensions, result depths,
// and mutation interleavings: every cached /v1/topn response must be
// bit-identical to a direct recomputation on the snapshot that is
// current at response time (single-threaded, so that snapshot is
// exactly the one that served the request).
func TestCachedTopNPropertyBitIdentical(t *testing.T) {
	for _, dim := range []int{2, 3} {
		dim := dim
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			s, ts := newTestServer(t, 400, dim, Config{CacheBytes: 1 << 20})
			rng := rand.New(rand.NewSource(int64(dim) * 17))
			pool := make([][]float64, 6)
			for i := range pool {
				w := make([]float64, dim)
				for j := range w {
					w[j] = rng.NormFloat64()
				}
				pool[i] = w
			}
			nextID := uint64(50_000)
			for step := 0; step < 250; step++ {
				switch rng.Intn(8) {
				case 0:
					v := make([]float64, dim)
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					nextID++
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := s.Insert(ctx, []core.Record{{ID: nextID, Vector: v}})
					cancel()
					if err != nil {
						t.Fatal(err)
					}
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := s.Delete(ctx, []uint64{uint64(rng.Intn(400) + 1)})
					cancel()
					if err != nil && !strings.Contains(err.Error(), "not found") {
						t.Fatal(err)
					}
				default:
					w := pool[rng.Intn(len(pool))]
					n := 1 + rng.Intn(25)
					got := postTopN(t, ts.URL, w, n)
					want, _, err := s.Snapshot().TopN(w, n)
					if err != nil {
						t.Fatal(err)
					}
					if !sameAsCore(got.Results, want) {
						t.Fatalf("dim %d step %d n=%d: cached response diverges from snapshot recomputation", dim, step, n)
					}
				}
			}
			ct := s.cache.Counters()
			if ct.Hits == 0 || ct.Misses == 0 || ct.Invalidations == 0 {
				t.Fatalf("workload did not exercise the cache: %+v", ct)
			}
		})
	}
}

// TestCacheDisabledByteIdentical: with -cache-bytes=0 the server must
// answer byte-for-byte like a cache-enabled twin on every path — first
// touches (misses) and repeats (hits served from stored entries). Since
// the disabled path is the pre-cache code path, this pins "cache off ==
// old behavior" and "cache on == same bytes" in one test.
func TestCacheDisabledByteIdentical(t *testing.T) {
	_, tsOff := newTestServer(t, 300, 3, Config{CacheBytes: 0})
	_, tsOn := newTestServer(t, 300, 3, Config{CacheBytes: 1 << 20})

	rng := rand.New(rand.NewSource(42))
	pool := make([][]float64, 4)
	for i := range pool {
		w := make([]float64, 3)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		pool[i] = w
	}
	body := func(url string, w []float64, n int) []byte {
		resp := postJSON(t, url+"/v1/topn", TopNRequest{Weights: w, N: n})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Each weight is queried at a fixed n, repeatedly: pass 0 is all
	// misses on the cached server, later passes are hits. Stats of a hit
	// are the stored stats of the identical original computation, so even
	// the stats block must match byte-for-byte.
	for pass := 0; pass < 3; pass++ {
		for i, w := range pool {
			n := 5 + i
			off := body(tsOff.URL, w, n)
			on := body(tsOn.URL, w, n)
			if !bytes.Equal(off, on) {
				t.Fatalf("pass %d weights %d: bodies differ\noff: %s\non:  %s", pass, i, off, on)
			}
		}
	}
}

// TestNoStaleAfterAckedMutation is the freshness regression: once a
// mutation has been acknowledged, a subsequent query for a previously
// cached weight vector must observe it. The inserted record dominates
// the corpus, so serving any pre-insert entry is immediately visible.
func TestNoStaleAfterAckedMutation(t *testing.T) {
	s, ts := newTestServer(t, 300, 3, Config{CacheBytes: 1 << 20})
	w := []float64{1, 1, 1}
	const champ = uint64(9_999_999)

	for round := 0; round < 5; round++ {
		// Warm the cache for this weight vector.
		postTopN(t, ts.URL, w, 5)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := s.Insert(ctx, []core.Record{{ID: champ, Vector: []float64{1e6, 1e6, 1e6}}})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		got := postTopN(t, ts.URL, w, 5)
		if len(got.Results) == 0 || got.Results[0].ID != champ {
			t.Fatalf("round %d: acked insert not visible; top result %+v", round, got.Results)
		}
		// Warm again post-insert, then delete: the dominating record must
		// vanish from the very next answer.
		postTopN(t, ts.URL, w, 5)
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		err = s.Delete(ctx, []uint64{champ})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		got = postTopN(t, ts.URL, w, 5)
		for _, r := range got.Results {
			if r.ID == champ {
				t.Fatalf("round %d: acked delete not visible; stale champion served", round)
			}
		}
	}
	if s.cache.Counters().Invalidations < 10 {
		t.Fatalf("expected one invalidation per mutation, got %+v", s.cache.Counters())
	}
}

// TestBatchThroughCacheDedupAndHits: duplicate weight vectors inside a
// batch are computed once — the second is a cache hit on the entry the
// first installed — and answered identically; a repeat of the
// whole batch is served entirely from the cache, still bit-identical to
// solo recomputation.
func TestBatchThroughCacheDedupAndHits(t *testing.T) {
	s, ts := newTestServer(t, 500, 3, Config{CacheBytes: 1 << 20})
	batch := [][]float64{
		{0.5, 0.3, 0.2},
		{-1, 2, 0.5},
		{0.5, 0.3, 0.2}, // duplicate of query 0
		{0, 0, 1},
	}
	run := func() TopNBatchResponse {
		resp := postJSON(t, ts.URL+"/v1/topn/batch", TopNBatchRequest{Weights: batch, N: 10})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out TopNBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	ct := s.cache.Counters()
	if ct.Misses != 3 || ct.Hits != 1 {
		t.Fatalf("first batch: counters %+v, want 3 misses and 1 hit (the duplicate)", ct)
	}
	second := run()
	ct = s.cache.Counters()
	if ct.Hits != 1+4 || ct.Misses != 3 {
		t.Fatalf("repeat batch: counters %+v, want 4 more hits and no new miss", ct)
	}
	for q, w := range batch {
		want, _, err := s.Snapshot().TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsCore(first.Queries[q].Results, want) || !sameAsCore(second.Queries[q].Results, want) {
			t.Fatalf("batch query %d diverges from solo recomputation", q)
		}
	}
	// The duplicate must be byte-identical to its twin, stats included.
	a, _ := json.Marshal(first.Queries[0])
	b, _ := json.Marshal(first.Queries[2])
	if !bytes.Equal(a, b) {
		t.Fatalf("duplicate batch members differ: %s vs %s", a, b)
	}
}

// TestCachedQueriesDuringSnapshotSwaps is the -race stress of the
// cached read path, extending the batch-vs-swap pattern: a mutator
// inserts and deletes a trio of dominating sentinel records (acked each
// time) while readers hammer /v1/topn with a small weight pool (so
// cache hits and coalesced flights occur). Invariants:
//
//   - every response is internally consistent: either ALL live
//     sentinels of one publish lead the ranking, or NONE appear — a mix
//     would mean a torn or cross-snapshot answer;
//   - the mutator's own follow-up query after each acked mutation sees
//     it (no stale cached entry survives an acknowledged write);
//   - scores are non-increasing (the ordered-prefix contract).
func TestCachedQueriesDuringSnapshotSwaps(t *testing.T) {
	s, ts := newTestServer(t, 400, 3, Config{CacheBytes: 1 << 20})
	const sentinelBase = uint64(1) << 40
	trio := []core.Record{
		{ID: sentinelBase + 0, Vector: []float64{1e6, 1e6, 1e6}},
		{ID: sentinelBase + 1, Vector: []float64{2e6, 1e6, 1e6}},
		{ID: sentinelBase + 2, Vector: []float64{1e6, 2e6, 1e6}},
	}
	pool := [][]float64{{1, 1, 1}, {2, 1, 0.5}, {0.5, 0.5, 2}}

	// query posts one probe and validates the sentinel invariant; it
	// returns an error instead of failing so goroutines can report.
	query := func(w []float64, wantSentinels int) error {
		b, _ := json.Marshal(TopNRequest{Weights: w, N: 8})
		resp, err := http.Post(ts.URL+"/v1/topn", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		var out TopNResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		seen := 0
		for i, r := range out.Results {
			if i > 0 && out.Results[i].Score > out.Results[i-1].Score {
				return fmt.Errorf("results out of order at rank %d", i)
			}
			if r.ID >= sentinelBase {
				seen++
			}
		}
		if seen != 0 && seen != len(trio) {
			return fmt.Errorf("torn answer: %d of %d sentinels visible", seen, len(trio))
		}
		if seen == len(trio) {
			// Dominating scores: the live trio must lead the ranking.
			for i := 0; i < len(trio); i++ {
				if out.Results[i].ID < sentinelBase {
					return fmt.Errorf("sentinels present but not leading at rank %d", i)
				}
			}
		}
		if wantSentinels >= 0 && seen != wantSentinels {
			return fmt.Errorf("stale answer: %d sentinels visible, want %d", seen, wantSentinels)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: publish the trio, verify read-your-writes through the
	// cached path, retract it, verify again. Every cycle is two snapshot
	// swaps racing the readers' hits and flights.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := s.Insert(ctx, trio); err != nil {
				t.Errorf("insert: %v", err)
				cancel()
				return
			}
			cancel()
			if err := query(pool[i%len(pool)], len(trio)); err != nil {
				t.Errorf("post-insert read: %v", err)
				return
			}
			ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
			if err := s.Delete(ctx, []uint64{trio[0].ID, trio[1].ID, trio[2].ID}); err != nil {
				t.Errorf("delete: %v", err)
				cancel()
				return
			}
			cancel()
			if err := query(pool[(i+1)%len(pool)], 0); err != nil {
				t.Errorf("post-delete read: %v", err)
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// -1: concurrent readers cannot know which snapshot they
				// get, only that it must be internally consistent.
				if err := query(pool[(g+i)%len(pool)], -1); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	ct := s.cache.Counters()
	if ct.Hits == 0 || ct.Invalidations == 0 {
		t.Errorf("stress did not exercise the cached path: %+v", ct)
	}
}
