package main

import (
	"context"
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

func testRecords(n, d int, seed int64, idBase uint64) []core.Record {
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: idBase + uint64(i+1), Vector: p}
	}
	return recs
}

// TestHierCompactionAfterLogReplay: -hier-compaction on a restart whose
// checkpoint carries no cluster assignment and whose log is non-empty.
// Recovery replays the log into the delta buffer, so the compactor can
// only attach after that delta is folded; the node must then serve the
// pre-crash answers and fold hierarchically from then on.
func TestHierCompactionAfterLogReplay(t *testing.T) {
	const dim = 3
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A directory first served without -hier-compaction: the seed
	// checkpoint has no aux blob.
	ix, err := core.Build(testRecords(400, dim, 7, 0), core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := wal.Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	s := server.New(ix, server.Config{WAL: mgr})
	if err := s.Insert(ctx, testRecords(10, dim, 11, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, []uint64{5, 17, 230}); err != nil {
		t.Fatal(err)
	}
	live := s.Snapshot()
	// Crash: no final checkpoint, the log is authoritative.
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, rec, err := wal.Open(dir, wal.Config{Options: core.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !rec.HasDelta() || rec.ClusterCompactor() != nil {
		t.Fatalf("recovered index: delta %v, compactor %v; want a replayed delta and no compactor",
			rec.HasDelta(), rec.ClusterCompactor() != nil)
	}
	served, c, err := attachHierarchy(rec, hierarchy.CompactorOptions{Clusters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if served.HasDelta() || served.ClusterCompactor() != core.ClusterCompactor(c) {
		t.Fatal("served index is not the folded index carrying the new compactor")
	}
	if got, want := served.ContentFingerprint(), live.ContentFingerprint(); got != want {
		t.Fatalf("served content %s, want the pre-crash %s", got, want)
	}

	s2 := server.New(served, server.Config{WAL: mgr2, DeltaThreshold: 2})
	defer s2.Close(ctx)
	hs := httptest.NewServer(s2.Handler())
	defer hs.Close()
	weights := []float64{0.5, -0.25, 1}
	resp, err := http.Post(hs.URL+"/v1/topn", "application/json",
		strings.NewReader(`{"weights":[0.5,-0.25,1],"n":15}`))
	if err != nil {
		t.Fatal(err)
	}
	var body server.TopNResponse
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/topn: status %d, %v", resp.StatusCode, err)
	}
	want, _, err := live.TopN(weights, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != len(want) {
		t.Fatalf("served %d results, want %d", len(body.Results), len(want))
	}
	for i, r := range body.Results {
		if r.ID != want[i].ID || r.Score != want[i].Score {
			t.Fatalf("rank %d: served %d (%v), want %d (%v)", i, r.ID, r.Score, want[i].ID, want[i].Score)
		}
	}

	// The next fold past the threshold is hierarchical.
	if err := s2.Insert(ctx, testRecords(3, dim, 13, 20_000)); err != nil {
		t.Fatal(err)
	}
	compactions := s2.Vars().Get("compactions").(*expvar.Int)
	for compactions.Value() < 1 {
		if ctx.Err() != nil {
			t.Fatal("no compaction landed after the restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s2.Snapshot().ClusterCompactor() == nil {
		t.Fatal("fold after the restart dropped the hierarchical compactor")
	}
}
