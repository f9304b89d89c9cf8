package storage

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// TestWriteSurvivesCrash pins the fsync discipline of WriteFS against a
// power-loss simulator: an index "saved" by WriteFS must be fully
// readable after a crash that drops everything not explicitly synced.
func TestWriteSurvivesCrash(t *testing.T) {
	ix := buildIndex(t, 500, 3, 41)
	fs := vfs.NewCrashFS()
	if err := fs.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFS(fs, "/data/index.onion", ix); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	data, err := fs.ReadFile("/data/index.onion")
	if err != nil {
		t.Fatalf("saved index gone after crash: %v", err)
	}
	di, err := NewDiskIndex(NewMemPager(data))
	if err != nil {
		t.Fatalf("saved index unreadable after crash: %v", err)
	}
	if di.Len() != ix.Len() || di.NumLayers() != ix.NumLayers() {
		t.Fatalf("recovered %d records / %d layers, want %d / %d",
			di.Len(), di.NumLayers(), ix.Len(), ix.NumLayers())
	}
	w := []float64{1, 1, 1}
	want, _, err := ix.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := di.TopN(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: recovered %+v, want %+v", i, got[i], want[i])
		}
	}

	// Negative control: the same write WITHOUT the sync discipline loses
	// the file — proving the simulator actually models power loss and the
	// test above is not vacuous.
	fs2 := vfs.NewCrashFS()
	if err := fs2.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	data2, err := Marshal(ix)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs2.OpenFile("/data/unsynced.onion", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data2); err != nil {
		t.Fatal(err)
	}
	f.Close() // no Sync, no SyncDir
	fs2.Crash()
	if _, err := fs2.ReadFile("/data/unsynced.onion"); err == nil {
		t.Fatal("unsynced write survived the crash; the simulator is too forgiving to catch fsync regressions")
	}
}

// TestDiskIndexMatchesMemoryProperty is the storage round-trip property
// test: across random dimensions and sizes, Marshal → DiskIndex must
// answer top-N queries identically to the in-memory index it came from
// — same IDs, same scores, same order.
func TestDiskIndexMatchesMemoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(5) // 2..6
		n := 1 + rng.Intn(400)
		seed := rng.Int63()
		ix := buildIndex(t, n, d, seed)
		data, err := Marshal(ix)
		if err != nil {
			t.Fatalf("trial %d (n=%d d=%d): %v", trial, n, d, err)
		}
		di, err := NewDiskIndex(NewMemPager(data))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 5; q++ {
			w := make([]float64, d)
			for j := range w {
				w[j] = rng.NormFloat64()
			}
			topn := 1 + rng.Intn(n+3) // sometimes > n records
			want, _, err := ix.TopN(w, topn)
			if err != nil {
				t.Fatal(err)
			}
			got, _, _, err := di.TopN(w, topn)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (n=%d d=%d) query %d: %d results from disk, %d from memory",
					trial, n, d, q, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("trial %d query %d rank %d: disk %+v, memory %+v",
						trial, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDiskIndexEdgeCases covers the shapes random trials can miss:
// a single record, a single layer, and the zero-layer empty index a
// delete-all leaves behind.
func TestDiskIndexEdgeCases(t *testing.T) {
	t.Run("single record", func(t *testing.T) {
		ix := buildIndex(t, 1, 3, 7)
		data, err := Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		di, err := NewDiskIndex(NewMemPager(data))
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := di.TopN([]float64{1, 2, 3}, 5)
		if err != nil || len(got) != 1 || got[0].ID != 1 {
			t.Fatalf("single-record query: %+v, %v", got, err)
		}
	})

	t.Run("single layer", func(t *testing.T) {
		// d+1 points in general position form one hull, one layer.
		pts := workload.Points(workload.Gaussian, 4, 3, 21)
		recs := make([]core.Record, len(pts))
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumLayers() != 1 {
			t.Fatalf("expected 1 layer, got %d", ix.NumLayers())
		}
		data, err := Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		di, err := NewDiskIndex(NewMemPager(data))
		if err != nil {
			t.Fatal(err)
		}
		w := []float64{1, -1, 0.5}
		want, _, _ := ix.TopN(w, 4)
		got, _, _, err := di.TopN(w, 4)
		if err != nil || len(got) != len(want) {
			t.Fatalf("single-layer query: %v, %v", got, err)
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("rank %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("empty after delete-all", func(t *testing.T) {
		ix := buildIndex(t, 20, 2, 31)
		ids := make([]uint64, 0, ix.Len())
		for _, r := range ix.Records() {
			ids = append(ids, r.ID)
		}
		if _, err := ix.DeleteDelta(ids, false); err != nil {
			t.Fatal(err)
		}
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		data, err := Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		di, err := NewDiskIndex(NewMemPager(data))
		if err != nil {
			t.Fatal(err)
		}
		if di.Len() != 0 || di.NumLayers() != 0 || di.Dim() != 2 {
			t.Fatalf("empty index round trip: len=%d layers=%d dim=%d", di.Len(), di.NumLayers(), di.Dim())
		}
		got, _, _, err := di.TopN([]float64{1, 1}, 3)
		if err != nil || len(got) != 0 {
			t.Fatalf("query on empty index: %v, %v", got, err)
		}
	})
}
