package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/workload"
)

// Compaction-scaling mode. `onionbench -compaction-scaling` measures
// what the hierarchical compactor actually buys on the write path: the
// cost of folding a delta buffer back into the index, flat (full
// re-peel of all n records) versus hierarchical (re-peel only the
// k-means clusters whose membership changed).
//
// For every (corpus size, delta size) configuration the harness clones
// one shared base index into a flat and a hierarchical twin, drives
// both through identical mixed insert/delete batches, and times each
// twin's Compact over several rounds. Every publish — the delta-visible
// state before the fold and the folded state after — is gated on a
// double oracle: the hierarchical index must answer bit-identically to
// its flat twin AND to a brute-force total order over the live records,
// and the two twins' content fingerprints must agree. Any mismatch
// exits non-zero.
//
// The quantity the sweep exists to expose is in the per-round rows:
// flat fold cost grows with n at fixed delta size, hierarchical fold
// cost tracks the re-peeled cluster mass (refolded_records) instead.
// The summary is written to -compaction-out (BENCH_compact.json).

// compactReport is the JSON emitted to -compaction-out.
type compactReport struct {
	Kind         string          `json:"kind"` // "onion-compaction-scaling"
	Generated    string          `json:"generated"`
	Dim          int             `json:"dim"`
	Sizes        []int           `json:"sizes"`
	Deltas       []int           `json:"deltas"`
	Rounds       int             `json:"rounds_per_config"`
	NumCPU       int             `json:"num_cpu"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Seed         int64           `json:"seed"`
	Configs      []compactConfig `json:"configs"`
	OracleChecks int             `json:"oracle_checks"`
	BitIdentical bool            `json:"bit_identical"`
}

// compactConfig is one (corpus size, delta size) cell of the sweep.
type compactConfig struct {
	Points        int     `json:"points"`
	Delta         int     `json:"delta"`
	Clusters      int     `json:"clusters"`
	AttachSeconds float64 `json:"attach_seconds"` // k-means + per-cluster peels, paid once per corpus

	Rounds []compactRound `json:"rounds"`

	// Means over the rounds — the headline numbers.
	FlatSeconds float64 `json:"flat_compact_s"`
	HierSeconds float64 `json:"hier_compact_s"`
	Speedup     float64 `json:"speedup"`
}

// compactRound is one fold of each twin.
type compactRound struct {
	Inserts          int     `json:"inserts"`
	Deletes          int     `json:"deletes"`
	FlatSeconds      float64 `json:"flat_compact_s"`
	HierSeconds      float64 `json:"hier_compact_s"`
	RefoldedClusters int     `json:"refolded_clusters"`
	RefoldedRecords  int     `json:"refolded_records"` // hull work the hierarchical fold paid for
}

func compactionScaling(sizesCSV, deltasCSV string, clusters, rounds int, outPath string) {
	const dim = 3
	sizes, err := parsePosInts(sizesCSV, "corpus size", false)
	if err != nil {
		fatal(err)
	}
	deltas, err := parsePosInts(deltasCSV, "delta size", false)
	if err != nil {
		fatal(err)
	}
	if rounds < 1 {
		rounds = 1
	}
	fmt.Printf("=== compaction-scaling: sizes=%v deltas=%v rounds=%d clusters=%d (0=heuristic) ===\n",
		sizes, deltas, rounds, clusters)

	weights := workload.QueryWeights(4, dim, *seedFlag+777)
	mismatches := 0
	oracleChecks := 0

	// oracle gates one published state: the hierarchical index must rank
	// bit-identically to its flat twin and to a brute-force total order.
	oracle := func(n, delta int, stage string, hier, flat *core.Index) {
		if got, want := hier.ContentFingerprint(), flat.ContentFingerprint(); got != want {
			mismatches++
			fmt.Fprintf(os.Stderr, "compaction-scaling: n=%d delta=%d %s: content fingerprint %s, flat twin %s\n",
				n, delta, stage, got, want)
		}
		recs := flat.Records()
		for _, w := range weights {
			for _, k := range []int{1, 10, 100} {
				want := bruteTopN(recs, w, k)
				gotF, _, err1 := flat.TopN(w, k)
				gotH, _, err2 := hier.TopN(w, k)
				oracleChecks++
				if err1 != nil || err2 != nil || diffRanking(gotF, want, false) != nil || diffRanking(gotH, want, false) != nil {
					mismatches++
					fmt.Fprintf(os.Stderr, "compaction-scaling: n=%d delta=%d %s: top-%d diverged (err1=%v err2=%v)\n",
						n, delta, stage, k, err1, err2)
				}
			}
		}
	}

	var configs []compactConfig
	for _, n := range sizes {
		pts := workload.Points(workload.Gaussian, n, dim, *seedFlag)
		recs := make([]core.Record, n)
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		t0 := time.Now()
		base, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: *parFlag})
		if err != nil {
			fatal(fmt.Errorf("compaction-scaling: build n=%d: %w", n, err))
		}
		fmt.Printf("built n=%d (%d layers) in %v\n", n, base.NumLayers(), time.Since(t0).Round(time.Millisecond))

		// Attach once per corpus; the compactor is functional, so every
		// per-delta clone shares it by reference and folds independently.
		// A fold never writes its input's base arrays, so the twins are
		// shallow clones.
		hierBase := base.CloneDelta()
		t0 = time.Now()
		comp, err := hierarchy.Attach(hierBase, hierarchy.CompactorOptions{
			Clusters: clusters,
			Build:    core.Options{Seed: *seedFlag, Parallelism: *parFlag},
			Seed:     *seedFlag,
		})
		if err != nil {
			fatal(fmt.Errorf("compaction-scaling: attach n=%d: %w", n, err))
		}
		attachS := time.Since(t0).Seconds()
		fmt.Printf("attached %d clusters in %.2fs\n", comp.NumClusters(), attachS)

		for _, delta := range deltas {
			cfg := compactConfig{Points: n, Delta: delta, Clusters: comp.NumClusters(), AttachSeconds: attachS}
			flat := base.CloneDelta()
			hier := hierBase.CloneDelta()
			rng := rand.New(rand.NewSource(*seedFlag + int64(31*n+delta)))
			live := make([]uint64, n)
			for i := range live {
				live[i] = uint64(i + 1)
			}
			nextID := uint64(n + 1)
			for round := 0; round < rounds; round++ {
				// A 2:1 insert:delete mix of `delta` mutations, identical
				// for both twins; deletes target pre-batch records only.
				var ins []core.Record
				var del []uint64
				for op := 0; op < delta; op++ {
					if op%3 == 2 && len(live) > 0 {
						i := rng.Intn(len(live))
						del = append(del, live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						vec := make([]float64, dim)
						for j := range vec {
							vec[j] = rng.NormFloat64()
						}
						ins = append(ins, core.Record{ID: nextID, Vector: vec})
						nextID++
					}
				}
				for _, ix := range []*core.Index{flat, hier} {
					if err := ix.InsertDelta(ins); err != nil {
						fatal(fmt.Errorf("compaction-scaling: insert delta: %w", err))
					}
					if _, err := ix.DeleteDelta(del, false); err != nil {
						fatal(fmt.Errorf("compaction-scaling: delete delta: %w", err))
					}
				}
				for _, r := range ins {
					live = append(live, r.ID)
				}
				oracle(n, delta, fmt.Sprintf("round %d pre-fold", round), hier, flat)

				t0 := time.Now()
				if err := flat.Compact(); err != nil {
					fatal(fmt.Errorf("compaction-scaling: flat compact: %w", err))
				}
				flatS := time.Since(t0).Seconds()
				t0 = time.Now()
				if err := hier.Compact(); err != nil {
					fatal(fmt.Errorf("compaction-scaling: hierarchical compact: %w", err))
				}
				hierS := time.Since(t0).Seconds()
				cc, ok := hier.ClusterCompactor().(*hierarchy.Compactor)
				if !ok {
					fatal(fmt.Errorf("compaction-scaling: compactor lost after fold (n=%d delta=%d)", n, delta))
				}
				st := cc.Stats()
				oracle(n, delta, fmt.Sprintf("round %d post-fold", round), hier, flat)

				cfg.Rounds = append(cfg.Rounds, compactRound{
					Inserts:          st.Inserts,
					Deletes:          st.Deletes,
					FlatSeconds:      flatS,
					HierSeconds:      hierS,
					RefoldedClusters: st.Refolded,
					RefoldedRecords:  st.RefoldedRecords,
				})
				cfg.FlatSeconds += flatS / float64(rounds)
				cfg.HierSeconds += hierS / float64(rounds)
			}
			if cfg.HierSeconds > 0 {
				cfg.Speedup = cfg.FlatSeconds / cfg.HierSeconds
			}
			last := cfg.Rounds[len(cfg.Rounds)-1]
			fmt.Printf("n=%7d delta=%5d: flat %.3fs  hier %.3fs  (%.1fx; refolded %d/%d clusters, %d records)\n",
				n, delta, cfg.FlatSeconds, cfg.HierSeconds, cfg.Speedup,
				last.RefoldedClusters, cfg.Clusters, last.RefoldedRecords)
			configs = append(configs, cfg)
		}
	}

	rep := compactReport{
		Kind:         "onion-compaction-scaling",
		Generated:    time.Now().UTC().Format(time.RFC3339),
		Dim:          dim,
		Sizes:        sizes,
		Deltas:       deltas,
		Rounds:       rounds,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         *seedFlag,
		Configs:      configs,
		OracleChecks: oracleChecks,
		BitIdentical: mismatches == 0,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("oracle: %d ranking checks, bit_identical=%v\n", oracleChecks, rep.BitIdentical)
	fmt.Printf("wrote %s\n", outPath)
	if mismatches != 0 {
		fatal(fmt.Errorf("compaction-scaling: %d oracle mismatches", mismatches))
	}
}
