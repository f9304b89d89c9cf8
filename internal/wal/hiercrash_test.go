// Crash torture for the hierarchical compaction path: the byte-offset
// power-loss sweep of crash_test.go, run against a server whose index
// carries a hierarchy.Compactor and whose delta threshold is low
// enough that background per-cluster folds are in flight while the
// mutation stream commits. The WAL never frames a fold (compaction is
// derived state), so recovery — which replays the log through the
// delta buffer onto the checkpoint's flat base — must land on the
// identical logical content at every cut, whatever the fold timing was.
package wal_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
)

func TestCrashAtEveryWALOffsetHierarchicalCompaction(t *testing.T) {
	const dim = 2
	const ops = 8
	fs := vfs.NewCrashFS()
	mgr, rec, err := wal.Open("/data", wal.Config{FS: fs, CheckpointBytes: -1, Options: core.Options{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir recovered state")
	}
	base := buildIndex(t, 120, dim, 17)
	if err := mgr.Bootstrap(base); err != nil {
		t.Fatal(err)
	}
	if _, err := hierarchy.Attach(base, hierarchy.CompactorOptions{Clusters: 5, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	// Threshold 2: the delta crosses it mid-stream, so hierarchical
	// folds run concurrently with the ops that follow.
	s := server.New(base, server.Config{WAL: mgr, DeltaThreshold: 2})
	fps := runSerialOps(t, s, base, dim, ops, (*core.Index).ContentFingerprint)
	live := s.Snapshot()
	if live.ClusterCompactor() == nil {
		t.Fatal("published snapshot lost the hierarchical compactor")
	}

	// At least one fold must land before the crash, so the sweep below
	// genuinely covers kill-during-and-after-fold states. Wait on the
	// compaction counter, not on an empty delta: a fold whose journal
	// replays ops published during it leaves a delta below the
	// threshold, and no further fold follows.
	waitCompactions(t, s, 1)
	folded := s.Snapshot()
	if got, want := folded.ContentFingerprint(), fps[ops]; got != want {
		t.Fatalf("folded snapshot content %s, want %s", got, want)
	}
	if folded.ClusterCompactor() == nil {
		t.Fatal("folded snapshot lost the hierarchical compactor")
	}

	// Power loss: no Close, no final checkpoint. A fold must never add
	// or drop WAL frames.
	crashSweep(t, fs, dim, 17, ops, func(cut, complete int, rec *core.Index) {
		if got := rec.ContentFingerprint(); got != fps[complete] {
			t.Fatalf("cut %d (%d complete records): content fingerprint %s, want %s",
				cut, complete, got, fps[complete])
		}
		if complete == ops {
			// Full durable prefix: the recovered index must rank
			// bit-identically to the hierarchically folded snapshot.
			w := []float64{0.6, 0.4}
			want, _, _ := folded.TopN(w, 15)
			got, _, _ := rec.TopN(w, 15)
			if !sameRanking(got, want) {
				t.Fatalf("recovered top-15 %v, folded %v", got, want)
			}
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
}
