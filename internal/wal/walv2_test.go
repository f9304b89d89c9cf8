package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/storage"
)

// Checkpoint-v2 and mmap-serving integration tests. These run against
// the real filesystem (t.TempDir): the mmap path needs an actual file
// descriptor, and the crash-torture suite already covers the
// fault-injected variants through CrashFS (which deliberately does not
// implement vfs.Mapper, so torture exercises the heap decode of the
// same v2 bytes).

func checkpointFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.onion"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one checkpoint, got %v (%v)", names, err)
	}
	return names[0]
}

func checkpointVersion(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(checkpointFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	v, err := storage.FormatVersion(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCheckpointV2DefaultAndMmapReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 500, 3, 17), core.Options{Seed: 17, Shells: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if v := checkpointVersion(t, dir); v != 2 {
		t.Fatalf("default checkpoint format = v%d, want v2", v)
	}

	// Heap reopen: version-sniffed decode.
	mgr2, ix2, err := Open(dir, Config{Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Mapped() != nil {
		t.Fatal("heap reopen produced a mapping")
	}
	if ix2.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("heap reopen changed the content fingerprint")
	}
	mgr2.Close()

	// Mmap reopen: served straight from the mapping, same answers.
	mgr3, ix3, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if mgr3.Mapped() == nil {
		t.Fatal("mmap reopen of a v2 checkpoint did not map")
	}
	if mgr3.MmapVars() == nil {
		t.Fatal("mapped manager exports no mmap vars")
	}
	if ix3.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("mmap reopen changed the content fingerprint")
	}
	for _, w := range [][]float64{{1, 0.5, -0.2}, {-1, 2, 0}} {
		want, _, err := ix.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix3.TopN(w, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mmap-served results diverge for %v", w)
		}
	}
}

func TestV1ToV2Migration(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 300, 3, 23), core.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// A v1-era data directory: epoch 1's checkpoint in the legacy paged
	// format and no log (recovery creates an empty one).
	if err := storage.Write(filepath.Join(dir, checkpointName(1)), ix); err != nil {
		t.Fatal(err)
	}
	if v := checkpointVersion(t, dir); v != 1 {
		t.Fatalf("seeded checkpoint is format v%d, want v1", v)
	}

	// Mmap config against a v1 checkpoint: decode fallback, no mapping,
	// identical state.
	mgr2, ix2, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.Mapped() != nil {
		t.Fatal("v1 checkpoint must not map")
	}
	if ix2.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("v1 load under Mmap changed the content fingerprint")
	}
	// The next rotation migrates the directory to v2...
	if err := mgr2.Checkpoint(ix2); err != nil {
		t.Fatal(err)
	}
	mgr2.Close()
	if v := checkpointVersion(t, dir); v != 2 {
		t.Fatalf("post-migration checkpoint format = v%d, want v2", v)
	}
	// ...and the reopen after that serves from the mapping.
	mgr3, ix3, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if mgr3.Mapped() == nil {
		t.Fatal("migrated v2 checkpoint did not map")
	}
	if ix3.ContentFingerprint() != ix.ContentFingerprint() {
		t.Fatal("migration changed the content fingerprint")
	}
}

// TestTornV2CheckpointFallsBack simulates the one crash window the
// atomic-replace discipline leaves: a rotation that died after the new
// epoch's checkpoint appeared under its real name but before its bytes
// were complete. Recovery must reject the torn v2 file on CRC/extent
// validation and fall back to the previous epoch — under both the heap
// and mmap read paths.
func TestTornV2CheckpointFallsBack(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		ix, err := core.Build(testRecords(t, 250, 3, 29), core.Options{Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		mgr, _, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Bootstrap(ix); err != nil {
			t.Fatal(err)
		}
		mgr.Close()

		// Forge the next epoch's checkpoint as a torn v2 write: intact
		// directory pages, missing extents.
		full, err := storage.MarshalV2(ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		torn := full[:storage.PageSize]
		tornPath := filepath.Join(dir, "checkpoint-0000000000000002.onion")
		if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}

		mgr2, ix2, err := Open(dir, Config{Mmap: mmap, Options: core.Options{Seed: 29}})
		if err != nil {
			t.Fatalf("mmap=%v: recovery failed outright: %v", mmap, err)
		}
		if ix2.ContentFingerprint() != ix.ContentFingerprint() {
			t.Fatalf("mmap=%v: fell back to the wrong state", mmap)
		}
		if mgr2.Seq() != 1 {
			t.Fatalf("mmap=%v: recovered epoch %d, want 1", mmap, mgr2.Seq())
		}
		mgr2.Close()
	}
}

// TestCompactorPersistsAcrossRestart pins satellite behavior of the v2
// aux blob: a hierarchical-compaction cluster assignment survives a
// clean-shutdown restart without re-running k-means or re-peeling, and
// a fold after the restart is bit-identical to one without it.
func TestCompactorPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(t, 400, 3, 37)
	ix, err := core.Build(recs, core.Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := hierarchy.Attach(ix, hierarchy.CompactorOptions{Clusters: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	wantSpec, err := cc.EncodeSpec()
	if err != nil {
		t.Fatal(err)
	}

	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2, ix2, err := Open(dir, Config{Options: core.Options{Seed: 37}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	restored := ix2.ClusterCompactor()
	if restored == nil {
		t.Fatal("cluster assignment did not survive the restart")
	}
	// Byte-equal spec = same centers, same ownership, same per-cluster
	// layering: nothing was re-clustered or re-peeled.
	enc, ok := restored.(interface{ EncodeSpec() ([]byte, error) })
	if !ok {
		t.Fatalf("restored compactor %T cannot re-encode", restored)
	}
	gotSpec, err := enc.EncodeSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSpec, gotSpec) {
		t.Fatal("restart re-derived a different cluster assignment")
	}

	// Fold the same delta on the never-restarted and restarted indexes:
	// the successors must agree exactly.
	apply := func(target *core.Index) string {
		t.Helper()
		fresh := testRecords(t, 10, 3, 41)
		for i := range fresh {
			fresh[i].ID += 10_000
		}
		if err := target.InsertDelta(fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := target.DeleteDelta([]uint64{5, 17, 230}, false); err != nil {
			t.Fatal(err)
		}
		if err := target.Compact(); err != nil {
			t.Fatal(err)
		}
		if target.ClusterCompactor() == nil {
			t.Fatal("fold dropped the compactor")
		}
		return target.Fingerprint()
	}
	if a, b := apply(ix), apply(ix2); a != b {
		t.Fatalf("restart-then-fold diverged from fold: %s vs %s", a, b)
	}
}

// TestMmapRecoveryReplaysOntoMapping: a restart under Mmap whose log
// holds committed mutations still serves from the mapping. Replay goes
// through the delta buffer, so the mapped base is never rebuilt on the
// heap, and the recovered index is the published snapshot exactly.
func TestMmapRecoveryReplaysOntoMapping(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 500, 3, 43), core.Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	extra := testRecords(t, 5, 3, 47)
	for i := range extra {
		extra[i].ID += 10_000
	}
	next := ix.CloneDelta()
	if err := next.InsertDelta(extra); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CommitBatch([]Mutation{{Insert: extra}}, next); err != nil {
		t.Fatal(err)
	}
	next = next.CloneDelta()
	del := []uint64{1, 2, extra[1].ID}
	if _, err := next.DeleteDelta(del, false); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CommitBatch([]Mutation{{Delete: del}}, next); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // no checkpoint: the log holds both batches
		t.Fatal(err)
	}

	mgr2, rec, err := Open(dir, Config{Mmap: true, Options: core.Options{Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	mp := mgr2.Mapped()
	if mp == nil {
		t.Fatal("recovery with a non-empty log did not serve from the mapping")
	}
	if got, want := rec.Fingerprint(), next.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s, want %s", got, want)
	}
	for _, w := range [][]float64{{1, 0.5, -0.2}, {-1, 2, 0}} {
		want, _, err := next.TopN(w, 20)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rec.TopN(w, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mmap recovery results diverge for %v", w)
		}
	}
	if mp.ExtentsTouched() == 0 {
		t.Fatal("queries on the recovered index touched no mapped extent")
	}
}

// TestCompactorSurvivesLogReplay: a restart whose log holds committed
// mutations keeps the checkpoint's cluster assignment. Replay goes
// through the delta buffer, which leaves the compactor attached (a
// cascade would detach it), and the next fold is hierarchical and
// bit-identical to the same fold on the never-restarted snapshot.
func TestCompactorSurvivesLogReplay(t *testing.T) {
	dir := t.TempDir()
	ix, err := core.Build(testRecords(t, 400, 3, 53), core.Options{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hierarchy.Attach(ix, hierarchy.CompactorOptions{Clusters: 4, Seed: 53}); err != nil {
		t.Fatal(err)
	}
	mgr, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Bootstrap(ix); err != nil {
		t.Fatal(err)
	}
	fresh := testRecords(t, 10, 3, 59)
	for i := range fresh {
		fresh[i].ID += 10_000
	}
	next := ix.CloneDelta()
	if err := next.InsertDelta(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := next.DeleteDelta([]uint64{5, 17, 230}, false); err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{{Insert: fresh}, {Delete: []uint64{5, 17, 230}}}
	if err := mgr.CommitBatch(muts, next); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil { // no checkpoint: restart replays
		t.Fatal(err)
	}

	mgr2, rec, err := Open(dir, Config{Options: core.Options{Seed: 53}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if rec.ClusterCompactor() == nil {
		t.Fatal("log replay detached the restored cluster assignment")
	}
	if got, want := rec.Fingerprint(), next.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s, want %s", got, want)
	}
	want, err := next.CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	if got.ClusterCompactor() == nil {
		t.Fatal("fold after restart dropped the compactor")
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fold after restart diverged from the fold without one")
	}
}
