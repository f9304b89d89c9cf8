// The crash-recovery torture tests: the durability pipeline is run
// end to end (HTTP serving layer → mutator → group commit → log), a
// power loss is simulated at every possible byte boundary of the log,
// and recovery is required to land on exactly the last durable
// published state — never a torn one, never a future one. This file is
// an external test package because it wires wal and server together.
package wal_test

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/workload"
)

func buildIndex(t testing.TB, n, d int, seed int64) *core.Index {
	t.Helper()
	pts := workload.Points(workload.Gaussian, n, d, seed)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	ix, err := core.Build(recs, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// durableServer couples a server on the default write path to a WAL
// manager on the given filesystem, bootstrapping from a fresh build.
// deltaThreshold 0 keeps the default threshold, far above the handful
// of ops these tests publish, so no fold runs before the crash and
// every published snapshot is the checkpoint's layers plus a delta
// that recovery rebuilds exactly. A small positive deltaThreshold
// makes background folds run while the ops commit.
func durableServer(t *testing.T, fs vfs.FS, dir string, n, d int, seed int64, deltaThreshold int) (*server.Server, *wal.Manager, *core.Index) {
	t.Helper()
	mgr, rec, err := wal.Open(dir, wal.Config{FS: fs, CheckpointBytes: -1, Options: core.Options{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered state")
	}
	base := buildIndex(t, n, d, seed)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	return server.New(base, server.Config{WAL: mgr, DeltaThreshold: deltaThreshold}), mgr, base
}

// dataFiles returns the live (checkpoint, wal) file names in dir.
func dataFiles(t *testing.T, fs vfs.FS, dir string) (cp, wl string) {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "checkpoint-"):
			cp = n
		case strings.HasPrefix(n, "wal-"):
			wl = n
		}
	}
	if cp == "" || wl == "" {
		t.Fatalf("data dir %v missing a checkpoint/wal pair", names)
	}
	return cp, wl
}

func writeDurable(t *testing.T, fs *vfs.CrashFS, dir, name string, data []byte) {
	t.Helper()
	f, err := fs.OpenFile(dir+"/"+name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

// runSerialOps drives mutations through the serving layer one at a
// time — each op is one publish and one WAL record — and returns the
// published fingerprint after each op, with fps[0] the pre-op state.
// fp selects the oracle: (*core.Index).Fingerprint when recovery must
// rebuild the published layers and delta exactly,
// (*core.Index).ContentFingerprint when a fold (a checkpoint or a
// background compaction) re-layered records in between.
func runSerialOps(t *testing.T, s *server.Server, base *core.Index, d, ops int, fp func(*core.Index) string) []string {
	t.Helper()
	ctx := context.Background()
	fps := []string{fp(base)}
	for i := 0; i < ops; i++ {
		if i%3 == 2 {
			// Delete a seed record that is still present.
			if err := s.Delete(ctx, []uint64{uint64(i + 1)}); err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
		} else {
			vec := make([]float64, d)
			for j := range vec {
				vec[j] = float64(i+1) * 0.25 * float64(j+1)
			}
			rec := core.Record{ID: uint64(10000 + i), Vector: vec}
			if err := s.Insert(ctx, []core.Record{rec}); err != nil {
				t.Fatalf("op %d insert: %v", i, err)
			}
		}
		fps = append(fps, fp(s.Snapshot()))
	}
	return fps
}

// crashSweep is the byte-offset power-loss torture shared by the crash
// tests. It crashes fs, requires the durable log to hold exactly
// records frames, and then, for EVERY byte offset of the log's record
// region, recovers a fresh disk holding the durable checkpoint plus
// that prefix of the log. check receives the number of records
// complete at the cut and the recovered index; it must find exactly
// the last state whose record is complete there. Recovery is never
// torn (a partial record never surfaces) and never future (no state
// beyond the durable prefix).
func crashSweep(t *testing.T, fs *vfs.CrashFS, dim int, seed int64, records int, check func(cut, complete int, rec *core.Index)) {
	t.Helper()
	fs.Crash()
	cpName, wlName := dataFiles(t, fs, "/data")
	cp, err := fs.ReadFile("/data/" + cpName)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := fs.ReadFile("/data/" + wlName)
	if err != nil {
		t.Fatal(err)
	}
	body := wl[wal.HeaderSize:]
	ends := wal.RecordEnds(body, dim)
	if len(ends) != records {
		t.Fatalf("durable log holds %d records, want %d", len(ends), records)
	}
	for cut := 0; cut <= len(body); cut++ {
		complete := 0
		for _, e := range ends {
			if e <= cut {
				complete++
			}
		}
		fs2 := vfs.NewCrashFS()
		if err := fs2.MkdirAll("/data", 0o755); err != nil {
			t.Fatal(err)
		}
		writeDurable(t, fs2, "/data", cpName, cp)
		writeDurable(t, fs2, "/data", wlName, wl[:wal.HeaderSize+cut])
		m2, rec, err := wal.Open("/data", wal.Config{FS: fs2, CheckpointBytes: -1, Options: core.Options{Seed: seed}})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if rec == nil {
			t.Fatalf("cut %d: no state recovered", cut)
		}
		check(cut, complete, rec)
		m2.Close()
	}
}

// TestCrashAtEveryWALOffset is the acceptance torture test. A server
// on the default write path publishes N serial mutations through the
// group-commit path, all of them still in the delta buffer (no fold
// runs). Recovery replays the log through the delta buffer, so at
// every cut it must rebuild the published snapshot exactly: the layer
// fingerprint (layers plus delta) matches, and at the full prefix the
// answers match field for field, delta records' Layer -1 included.
func TestCrashAtEveryWALOffset(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	s, _, base := durableServer(t, fs, "/data", 120, dim, 17, 0)
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).Fingerprint)
	live := s.Snapshot()
	if !live.HasDelta() {
		t.Fatal("published snapshot carries no delta")
	}

	// Power loss: no Close, no final checkpoint.
	crashSweep(t, fs, dim, 17, ops, func(cut, complete int, rec *core.Index) {
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if complete == ops {
			w := []float64{0.6, 0.4}
			want, _, _ := live.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered top-15 %v, live %v", got, want)
			}
		}
	})
}

// TestCrashAtEveryWALOffsetDeltaMode repeats the byte-offset torture
// with a delta threshold low enough that a flat background fold lands
// while the op stream commits. The WAL frames the delta-buffered ops
// and never a fold, so recovery replays the log through the delta
// buffer onto the checkpoint's unfolded base: the layer partition
// differs from the folded live snapshot by construction, and the
// oracle is logical content (and, at the full prefix, bit-identical
// rankings), whatever the fold timing was.
func TestCrashAtEveryWALOffsetDeltaMode(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	s, _, base := durableServer(t, fs, "/data", 120, dim, 17, 3)
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).ContentFingerprint)
	waitCompactions(t, s, 1)
	live := s.Snapshot()
	if got, want := live.ContentFingerprint(), fps[ops]; got != want {
		t.Fatalf("folded snapshot content %s, want %s", got, want)
	}

	// Power loss: no Close, no final checkpoint.
	crashSweep(t, fs, dim, 17, ops, func(cut, complete int, rec *core.Index) {
		if got := rec.ContentFingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): content fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if complete == ops {
			w := []float64{0.6, 0.4}
			want, _, _ := live.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if !sameRanking(got, want) {
				t.Fatalf("recovered top-15 %v, live %v", got, want)
			}
		}
	})
}

// waitCompactions blocks until s has published at least n background
// folds, failing the test after 10s.
func waitCompactions(t *testing.T, s *server.Server, n int64) {
	t.Helper()
	compactions := s.Vars().Get("compactions").(*expvar.Int)
	deadline := time.Now().Add(10 * time.Second)
	for compactions.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d compactions landed within 10s", compactions.Value(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointWithPendingDelta forces a checkpoint midway through
// the op stream while the live snapshot still carries unfolded delta
// records and tombstones, then runs the byte-offset torture over the
// post-checkpoint log. The on-disk layer format cannot represent a
// delta, so the manager must persist a folded copy — losing the delta
// inserts or resurrecting tombstoned records here would corrupt every
// later recovery. Every truncation point must map onto the states
// published after the checkpoint. The fold re-layers records, so the
// oracle is content (and, at the full prefix, bit-identical rankings).
func TestCheckpointWithPendingDelta(t *testing.T) {
	const dim = 2
	const before, after = 6, 4
	fs := vfs.NewCrashFS()
	s, mgr, base := durableServer(t, fs, "/data", 100, dim, 23, 0)
	fps := runSerialOps(t, s, base, dim, before, (*core.Index).ContentFingerprint)
	snap := s.Snapshot()
	if !snap.HasDelta() {
		t.Fatal("expected a pending delta before the forced checkpoint")
	}
	if err := mgr.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if mgr.Seq() != 2 {
		t.Fatalf("epoch %d after forced checkpoint, want 2", mgr.Seq())
	}
	if !snap.HasDelta() {
		t.Fatal("checkpoint must not mutate the snapshot it persists")
	}
	// More delta-buffered ops land in the post-checkpoint log, among
	// them a delete of a record the checkpoint folded into its layers.
	ctx := context.Background()
	for i := 0; i < after; i++ {
		if i == 2 {
			if err := s.Delete(ctx, []uint64{10000}); err != nil {
				t.Fatal(err)
			}
		} else {
			rec := core.Record{ID: uint64(30000 + i), Vector: []float64{float64(i) + 0.25, -float64(i)}}
			if err := s.Insert(ctx, []core.Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		fps = append(fps, s.Snapshot().ContentFingerprint())
	}
	live := s.Snapshot()

	crashSweep(t, fs, dim, 23, after, func(cut, complete int, rec *core.Index) {
		// The checkpoint pins state `before`; each complete tail record
		// advances one state past it.
		if got := rec.ContentFingerprint(); got != fps[before+complete] {
			t.Fatalf("cut %d (%d complete tail records): content fingerprint %s, want %s",
				cut, complete, got, fps[before+complete])
		}
		if complete == after {
			w := []float64{0.6, 0.4}
			want, _, _ := live.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if !sameRanking(got, want) {
				t.Fatalf("recovered top-15 %v, live %v", got, want)
			}
		}
	})
}

// TestCrashAfterMidwayCheckpoint forces a checkpoint between ops after
// a background fold has emptied the delta, so the checkpoint persists
// the live layers as they are. The log then holds only the
// post-checkpoint tail, still in the delta buffer, and every
// truncation point must recover exactly a state published after the
// checkpoint: the layer fingerprint (layers plus delta) matches, and
// at the full prefix the answers match field for field.
func TestCrashAfterMidwayCheckpoint(t *testing.T) {
	const dim = 2
	const before, after = 4, 3
	fs := vfs.NewCrashFS()
	// Threshold 4: the fourth op starts a fold; the three tail ops stay
	// below the threshold, so none follows.
	s, mgr, base := durableServer(t, fs, "/data", 100, dim, 23, before)
	runSerialOps(t, s, base, dim, before, (*core.Index).ContentFingerprint)
	waitCompactions(t, s, 1)
	folded := s.Snapshot()
	if folded.HasDelta() {
		t.Fatal("fold left a delta with no op published during it")
	}
	if err := mgr.Checkpoint(folded); err != nil {
		t.Fatal(err)
	}
	if mgr.Seq() != 2 {
		t.Fatalf("epoch %d after forced checkpoint, want 2", mgr.Seq())
	}
	fps := []string{folded.Fingerprint()}
	ctx := context.Background()
	for i := 0; i < after; i++ {
		if i == 1 {
			// Delete a record the fold moved into the layers.
			if err := s.Delete(ctx, []uint64{10000}); err != nil {
				t.Fatal(err)
			}
		} else {
			rec := core.Record{ID: uint64(20000 + i), Vector: []float64{float64(i) + 0.5, -float64(i)}}
			if err := s.Insert(ctx, []core.Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		fps = append(fps, s.Snapshot().Fingerprint())
	}
	live := s.Snapshot()
	if !live.HasDelta() {
		t.Fatal("post-checkpoint ops left no delta")
	}

	crashSweep(t, fs, dim, 23, after, func(cut, complete int, rec *core.Index) {
		// The checkpoint pins fps[0]; each complete tail record advances
		// one state past it.
		if got := rec.Fingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete tail records): fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if complete == after {
			w := []float64{0.6, 0.4}
			want, _, _ := live.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered top-15 %v, live %v", got, want)
			}
		}
	})
}

// TestRestartServesIdenticalTopN is the end-to-end restart check on a
// real filesystem: an onionserve-shaped stack (HTTP handler included)
// on a default server.Config is mutated, shut down WITHOUT a final
// checkpoint (forcing WAL replay on the next boot), reopened on the
// same data directory, and must serve byte-identical /v1/topn
// responses — the per-result "layer" included, so delta records must
// come back as delta records.
func TestRestartServesIdenticalTopN(t *testing.T) {
	dir := t.TempDir()
	const dim = 3
	mgr, rec, err := wal.Open(dir, wal.Config{Options: core.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir recovered state")
	}
	base := buildIndex(t, 300, dim, 5)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	s := server.New(base, server.Config{WAL: mgr})
	ts := httptest.NewServer(s.Handler())

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		rec := core.Record{ID: uint64(7000 + i), Vector: []float64{float64(i), 1.5, -float64(i) * 0.5}}
		if err := s.Insert(ctx, []core.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(ctx, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	wantFp := s.Snapshot().Fingerprint()
	query := func(url string) string {
		t.Helper()
		resp, err := postTopN(url, `{"weights":[0.4,0.35,0.25],"n":12}`)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	body1 := query(ts.URL)
	if !strings.Contains(body1, `"layer":-1`) {
		t.Fatalf("no delta record in the top-12, the layer check is vacuous: %s", body1)
	}

	ts.Close()
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // Close does not checkpoint: restart must replay
		t.Fatal(err)
	}

	mgr2, rec2, err := wal.Open(dir, wal.Config{Options: core.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil {
		t.Fatal("restart recovered nothing")
	}
	if got := rec2.Fingerprint(); got != wantFp {
		t.Fatalf("recovered fingerprint %s, want %s", got, wantFp)
	}
	s2 := server.New(rec2, server.Config{WAL: mgr2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close(ctx)
		mgr2.Close()
	}()
	body2 := query(ts2.URL)
	if body1 != body2 {
		t.Fatalf("restarted /v1/topn differs:\n before: %s\n after:  %s", body1, body2)
	}
}

// TestRecoveredDeltaPastThresholdFolds: a restart whose replayed delta
// is already at the server's threshold must start a background fold at
// boot, without waiting for the next write.
func TestRecoveredDeltaPastThresholdFolds(t *testing.T) {
	const dim = 2
	const ops = 6
	fs := vfs.NewCrashFS()
	s, mgr, base := durableServer(t, fs, "/data", 100, dim, 31, 0)
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).ContentFingerprint)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, rec, err := wal.Open("/data", wal.Config{FS: fs, CheckpointBytes: -1, Options: core.Options{Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if rec.DeltaLen() != ops {
		t.Fatalf("recovered delta holds %d mutations, want %d", rec.DeltaLen(), ops)
	}
	s2 := server.New(rec, server.Config{WAL: mgr2, DeltaThreshold: ops})
	defer s2.Close(ctx)
	waitCompactions(t, s2, 1) // no write follows: the fold started at boot
	folded := s2.Snapshot()
	if folded.HasDelta() {
		t.Fatalf("folded snapshot still carries %d delta mutations", folded.DeltaLen())
	}
	if got := folded.ContentFingerprint(); got != fps[ops] {
		t.Fatalf("folded content %s, want %s", got, fps[ops])
	}
}

func postTopN(baseURL, body string) (string, error) {
	resp, err := httpPost(baseURL+"/v1/topn", body)
	if err != nil {
		return "", err
	}
	defer resp.Close()
	b, err := io.ReadAll(resp)
	return string(b), err
}

func httpPost(url, body string) (io.ReadCloser, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return resp.Body, nil
}

// sameRanking compares two result sequences on IDs and score bits.
// Layer is excluded: a fold re-layers records, and the contract across
// a fold is the ranking, not the layer annotations.
func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
