package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func buildIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t testing.TB, n, d int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(buildIndex(t, n, d, int64(n+d)), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTopNEndpointMatchesIndex(t *testing.T) {
	s, ts := newTestServer(t, 500, 3, Config{})
	w := []float64{0.5, 0.3, 0.2}

	resp := postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: w, N: 10})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got TopNResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := s.Snapshot().TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.ID != want[i].ID || r.Score != want[i].Score || r.Layer != want[i].Layer {
			t.Fatalf("result %d: got %+v want %+v", i, r, want[i])
		}
	}
	if got.Stats.RecordsEvaluated != wantStats.RecordsEvaluated || got.Stats.LayersAccessed != wantStats.LayersAccessed {
		t.Fatalf("stats mismatch: %+v vs %+v", got.Stats, wantStats)
	}
}

func TestTopNBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 200, 2, Config{})
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"wrong dims", `{"weights":[1,2,3],"n":5}`, http.StatusBadRequest},
		{"zero n", `{"weights":[1,2],"n":0}`, http.StatusBadRequest},
		{"garbage", `{nope`, http.StatusBadRequest},
		{"unknown field", `{"weights":[1,2],"n":5,"frobnicate":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/topn", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

func TestSearchStreamsInRankOrder(t *testing.T) {
	s, ts := newTestServer(t, 800, 2, Config{})
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Weights: []float64{0.7, 0.3}, Limit: 40})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var results []ResultJSON
	var trailer *SearchTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			trailer = &SearchTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var r ResultJSON
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 40 {
		t.Fatalf("got %d results, want 40", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatalf("rank order violated at %d: %v after %v", i, results[i], results[i-1])
		}
	}
	if trailer == nil || !trailer.Done {
		t.Fatal("missing completion trailer")
	}
	if trailer.Stats.LayersAccessed == 0 || trailer.Stats.LayersAccessed > 40 {
		t.Fatalf("implausible layers accessed: %d", trailer.Stats.LayersAccessed)
	}
	// Wire results must match a direct progressive search.
	sr := s.Snapshot().NewSearcher([]float64{0.7, 0.3}, 40)
	for i := 0; ; i++ {
		res, ok := sr.Next()
		if !ok {
			break
		}
		if results[i].ID != res.ID || results[i].Score != res.Score {
			t.Fatalf("result %d: wire %+v, direct %+v", i, results[i], res)
		}
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, 300, 2, Config{})

	// A record that dominates every Gaussian point.
	ins := InsertRequest{Records: []RecordJSON{{ID: 99999, Vector: []float64{100, 100}}}}
	resp := postJSON(t, ts.URL+"/v1/insert", ins)
	var mr MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Len != 301 {
		t.Fatalf("insert: status %d, len %d", resp.StatusCode, mr.Len)
	}

	// Read-your-writes: the insert reply arrives after the snapshot swap.
	resp = postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 1}, N: 1})
	var tr TopNResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Results) != 1 || tr.Results[0].ID != 99999 {
		t.Fatalf("inserted record not on top: %+v", tr.Results)
	}

	// Duplicate insert conflicts.
	resp = postJSON(t, ts.URL+"/v1/insert", ins)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert: status %d, want 409", resp.StatusCode)
	}

	// Delete it again.
	resp = postJSON(t, ts.URL+"/v1/delete", DeleteRequest{IDs: []uint64{99999}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 1}, N: 1})
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Results) != 1 || tr.Results[0].ID == 99999 {
		t.Fatalf("deleted record still on top: %+v", tr.Results)
	}

	// Unknown ID 404s without applying anything.
	resp = postJSON(t, ts.URL+"/v1/delete", DeleteRequest{IDs: []uint64{424242}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown delete: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, 250, 3, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !h.OK || h.Records != 250 || h.Dim != 3 || h.Layers == 0 {
		t.Fatalf("healthz: %+v", h)
	}

	postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 0, 0}, N: 5}).Body.Close()

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m["queries_served"].(float64) < 1 {
		t.Fatalf("queries_served not counted: %v", m["queries_served"])
	}
	if m["records_evaluated"].(float64) <= 0 {
		t.Fatalf("records_evaluated not counted: %v", m["records_evaluated"])
	}
	lat, ok := m["topn_latency_ms"].(map[string]any)
	if !ok || lat["count"].(float64) < 1 {
		t.Fatalf("latency histogram missing: %v", m["topn_latency_ms"])
	}
}

func TestAdmissionLimiter(t *testing.T) {
	s, ts := newTestServer(t, 200, 2, Config{MaxInFlight: 2})
	// Occupy both slots, then every query endpoint must shed load.
	if !s.admit() || !s.admit() {
		t.Fatal("could not occupy admission slots")
	}
	resp := postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 1}, N: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("topn under saturation: status %d, want 429", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/search", SearchRequest{Weights: []float64{1, 1}, Limit: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("search under saturation: status %d, want 429", resp.StatusCode)
	}
	if got := s.metrics.queriesRejected.Value(); got != 2 {
		t.Fatalf("queries_rejected = %d, want 2", got)
	}
	s.release()
	resp = postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 1}, N: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topn after release: status %d", resp.StatusCode)
	}
	s.release()
}

// cancelAfterWriter cancels the request context once a given number of
// NDJSON lines has been written, simulating a client that consumed a
// prefix of a progressive stream and hung up.
type cancelAfterWriter struct {
	header http.Header
	lines  int
	after  int
	cancel context.CancelFunc
}

func (w *cancelAfterWriter) Header() http.Header { return w.header }
func (w *cancelAfterWriter) WriteHeader(int)     {}
func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte("\n"))
	if w.lines >= w.after {
		w.cancel()
	}
	return len(p), nil
}

// TestSearchCancelStopsConsumingLayers is the acceptance check: an
// abandoned /v1/search stream must stop evaluating layers, observable
// through the server's Stats counters.
func TestSearchCancelStopsConsumingLayers(t *testing.T) {
	const n = 4000
	ix := buildIndex(t, n, 2, 99)
	if ix.NumLayers() < 10 {
		t.Fatalf("want a deep index, got %d layers", ix.NumLayers())
	}
	s := New(ix, Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(SearchRequest{Weights: []float64{0.6, 0.4}, Limit: 0})
	req := httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)).WithContext(ctx)
	w := &cancelAfterWriter{header: make(http.Header), after: 2, cancel: cancel}
	s.handleSearch(w, req)

	if got := s.metrics.searchCancelled.Value(); got != 1 {
		t.Fatalf("search_cancelled = %d, want 1", got)
	}
	rec := s.metrics.recordsEvaluated.Value()
	lay := s.metrics.layersAccessed.Value()
	if rec >= n/2 {
		t.Fatalf("cancelled stream evaluated %d of %d records — did not stop", rec, n)
	}
	if lay == 0 || lay > 6 {
		t.Fatalf("cancelled stream accessed %d layers, want a small prefix", lay)
	}
}

func TestCloseRejectsFurtherMutations(t *testing.T) {
	s := New(buildIndex(t, 100, 2, 3), Config{})
	ctx := context.Background()
	if err := s.Insert(ctx, []core.Record{{ID: 5000, Vector: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(ctx, []core.Record{{ID: 5001, Vector: []float64{1, 2}}}); err != ErrClosed {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Snapshots outlive Close.
	if _, _, err := s.Snapshot().TopN([]float64{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopNHandler(b *testing.B) {
	s := New(buildIndex(b, 5000, 3, 42), Config{})
	defer s.Close(context.Background())
	h := s.Handler()
	body, _ := json.Marshal(TopNRequest{Weights: []float64{0.5, 0.3, 0.2}, N: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/topn", bytes.NewReader(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
}

// readSearchStream decodes an NDJSON /v1/search response into its
// result lines and trailer.
func readSearchStream(t *testing.T, resp *http.Response) ([]ResultJSON, *SearchTrailer) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	var results []ResultJSON
	var trailer *SearchTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			trailer = &SearchTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var r ResultJSON
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	return results, trailer
}

// TestApplyPartialBatchFailure: when one op in a coalesced batch fails,
// the published snapshot must reflect exactly the successful ops —
// never a torn clone — and every caller must get its own verdict.
func TestApplyPartialBatchFailure(t *testing.T) {
	s := New(buildIndex(t, 100, 2, 7), Config{})
	defer s.Close(context.Background())

	okIns := op{insert: []core.Record{{ID: 9001, Vector: []float64{50, 50}}}, reply: make(chan opResult, 1)}
	// Fails validation via the intra-batch duplicate check; a failed op
	// must leave the clone exactly as the previous op left it.
	badIns := op{insert: []core.Record{
		{ID: 9002, Vector: []float64{1, 1}},
		{ID: 9002, Vector: []float64{2, 2}},
	}, reply: make(chan opResult, 1)}
	okDel := op{del: []uint64{1}, reply: make(chan opResult, 1)}
	badDel := op{del: []uint64{424242}, reply: make(chan opResult, 1)}

	s.apply([]op{okIns, badIns, okDel, badDel})

	if res := <-okIns.reply; res.err != nil {
		t.Fatalf("good insert failed: %v", res.err)
	}
	if res := <-badIns.reply; res.err == nil {
		t.Fatal("intra-batch duplicate insert succeeded")
	}
	if res := <-okDel.reply; res.err != nil {
		t.Fatalf("good delete failed: %v", res.err)
	}
	if res := <-badDel.reply; res.err == nil {
		t.Fatal("unknown-ID delete succeeded")
	}

	snap := s.Snapshot()
	if snap.Len() != 100 { // 100 seed + 1 insert - 1 delete
		t.Fatalf("Len = %d, want 100", snap.Len())
	}
	count := map[uint64]int{}
	for _, r := range snap.Records() {
		count[r.ID]++
	}
	if count[9001] != 1 {
		t.Errorf("inserted ID 9001 appears %d times, want 1", count[9001])
	}
	if count[9002] != 0 {
		t.Errorf("rejected ID 9002 appears %d times, want 0", count[9002])
	}
	if count[1] != 0 {
		t.Errorf("deleted ID 1 appears %d times, want 0", count[1])
	}
	for id, c := range count {
		if c != 1 {
			t.Errorf("ID %d appears %d times", id, c)
		}
	}
	// The surviving snapshot must still answer queries correctly.
	res, _, err := snap.TopN([]float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 9001 {
		t.Fatalf("top-1 = %+v, want the dominating inserted record 9001", res)
	}
}

// TestTopNHugeN: with no MaxResults clamp configured (the documented
// zero value), a client-supplied huge n must not drive a huge upfront
// allocation or a makeslice panic.
func TestTopNHugeN(t *testing.T) {
	_, ts := newTestServer(t, 50, 2, Config{})
	resp := postJSON(t, ts.URL+"/v1/topn", TopNRequest{Weights: []float64{1, 1}, N: 1 << 40})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got TopNResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 50 {
		t.Fatalf("got %d results, want all 50", len(got.Results))
	}
}

// TestSearchTruncatedTrailer: a stream cut short by the server's
// MaxResults cap must say so in the trailer, so clients can tell a
// complete ranking from a capped one.
func TestSearchTruncatedTrailer(t *testing.T) {
	_, ts := newTestServer(t, 30, 2, Config{MaxResults: 10})

	// limit 0 asks for the complete ranking; the cap rewrites it.
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Weights: []float64{1, 1}, Limit: 0})
	results, trailer := readSearchStream(t, resp)
	resp.Body.Close()
	if len(results) != 10 {
		t.Fatalf("got %d results, want capped 10", len(results))
	}
	if trailer == nil || !trailer.Done || !trailer.Truncated {
		t.Fatalf("trailer = %+v, want done and truncated", trailer)
	}

	// An explicit limit within the cap is the client's own choice.
	resp = postJSON(t, ts.URL+"/v1/search", SearchRequest{Weights: []float64{1, 1}, Limit: 5})
	results, trailer = readSearchStream(t, resp)
	resp.Body.Close()
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if trailer == nil || !trailer.Done || trailer.Truncated {
		t.Fatalf("trailer = %+v, want done and not truncated", trailer)
	}

	// A cap larger than the index never truncates.
	_, big := newTestServer(t, 30, 2, Config{MaxResults: 100})
	resp = postJSON(t, big.URL+"/v1/search", SearchRequest{Weights: []float64{1, 1}, Limit: 0})
	results, trailer = readSearchStream(t, resp)
	resp.Body.Close()
	if len(results) != 30 {
		t.Fatalf("got %d results, want all 30", len(results))
	}
	if trailer == nil || !trailer.Done || trailer.Truncated {
		t.Fatalf("trailer = %+v, want done and not truncated", trailer)
	}
}

// TestWeightValidationBadRequests pins the HTTP mapping of
// core.ValidateWeights: malformed weight vectors fail both query
// endpoints with 400 before admission, rather than producing an empty
// stream (the old nil-searcher path) or garbage ranks. Non-finite
// components cannot ride standard JSON (the decoder rejects NaN and
// 1e999 on its own, also a 400), so the cases here are the
// dimension-mismatch class plus the decoder-level rejections.
func TestWeightValidationBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 100, 3, Config{})
	for _, tc := range []struct {
		name, path, body string
	}{
		{"topn short weights", "/v1/topn", `{"weights":[1,2],"n":5}`},
		{"topn empty weights", "/v1/topn", `{"weights":[],"n":5}`},
		{"topn inf literal", "/v1/topn", `{"weights":[1e999,0,0],"n":5}`},
		{"search short weights", "/v1/search", `{"weights":[1,2],"limit":5}`},
		{"search long weights", "/v1/search", `{"weights":[1,2,3,4],"limit":5}`},
		{"search inf literal", "/v1/search", `{"weights":[0,1e999,0],"limit":5}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}
