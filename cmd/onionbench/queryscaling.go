package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// onionbench -query-scaling: the read-side performance trajectory.
//
// The paper's evaluation counts records and layers (Table 1, Figure 9);
// this mode measures what those counts cost on a real machine, across
// the pruning modes of the one columnar query walk:
//
//	columnar        contiguous layer slabs, strided kernels, no pruning
//	columnar+prune  slabs plus the Cauchy–Schwarz/axis-box layer bound
//	shells          + spherical-shell intra-layer pruning (paper §6):
//	                slabs bucket-ordered around each layer centroid,
//	                angular buckets skipped by score bound
//
// Before any timing, every (corpus × worker count) combination is
// checked against a brute-force scan, query by query: every mode, solo
// TopN and TopNBatch, shells on and off, must match the oracle's
// total-order ranking (IDs and score bits, rank by rank) and agree
// with each other bitwise (layers included). Shells are additionally
// checked with an active delta buffer — insert-only (shell tables
// live) and with tombstones (the shell path must stand down for
// the tombstone-inclusive layer maximum) — so the §6 structure composes with the LSM write path. Any mismatch exits non-zero —
// scripts/ci.sh runs a small sweep as a regression gate on exactly
// this property.
//
// The delta-merge leg then times the shipped walk (columnar+prune, one
// worker) over a CloneDelta of the largest 3D and 4D corpora carrying
// 0, 256 and 1600 pending records, two delta inserts to every
// tombstone — the backlog shape of a server between folds. Each delta
// shape passes the same brute-force gate, solo and batched, before it
// is timed.
//
// The summary lands in -query-out (BENCH_query.json) next to
// BENCH_build.json and BENCH_server.json. The headline block is the
// committed acceptance number: columnar+prune and shells vs columnar
// ns/query on the largest 4D corpus at one worker, with num_cpu
// alongside so readers can judge the parallel rows.

// queryScalingRun is one measured configuration of the sweep.
type queryScalingRun struct {
	Dim               int     `json:"dim"`
	N                 int     `json:"n"`
	Layers            int     `json:"layers"`
	TopN              int     `json:"topn"`
	Mode              string  `json:"mode"`
	Workers           int     `json:"workers"`
	Delta             int     `json:"delta,omitempty"` // delta-merge leg: pending records, 2:1 inserts:tombstones
	NsPerQuery        float64 `json:"ns_per_query"`
	QueriesPerSec     float64 `json:"queries_per_sec"`
	RecordsEvaluated  float64 `json:"records_evaluated_avg"`
	LayersPruned      float64 `json:"layers_pruned_avg,omitempty"`
	RecordsSkipped    float64 `json:"records_skipped_by_shells_avg,omitempty"`
	SpeedupVsColumnar float64 `json:"speedup_vs_columnar,omitempty"`
}

// queryHeadline is the acceptance number: the largest 4D corpus,
// sequential workers, smallest top-N (the paper's interactive shape).
type queryHeadline struct {
	Dim                     int     `json:"dim"`
	N                       int     `json:"n"`
	TopN                    int     `json:"topn"`
	Workers                 int     `json:"workers"`
	SpeedupPrunedVsColumnar float64 `json:"speedup_pruned_vs_columnar"`
	SpeedupShellsVsColumnar float64 `json:"speedup_shells_vs_columnar"`
	// RecordsCutShellsVsPrune is the §6 acceptance ratio: average
	// records evaluated by columnar+prune divided by the shells mode's,
	// same corpus / top-N / workers as the headline speedups.
	RecordsCutShellsVsPrune float64 `json:"records_cut_shells_vs_prune"`
}

// queryScalingSummary is the BENCH_query.json schema.
type queryScalingSummary struct {
	Kind       string `json:"kind"`
	Generated  string `json:"generated"`
	Dist       string `json:"dist"`
	Seed       int64  `json:"seed"`
	Queries    int    `json:"queries"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    []int  `json:"workers"`
	TopNs      []int  `json:"topns"`
	// ServingMode records what backs the measured slabs. The sweep
	// builds its indexes in process, so this is always "heap" here; the
	// field exists so BENCH_query.json and BENCH_mmap.json (which
	// measures the mmap mode) are directly comparable.
	ServingMode     string            `json:"serving_mode"`
	ResidentBudget  int64             `json:"resident_budget_bytes,omitempty"`
	Runs            []queryScalingRun `json:"runs"`
	IdenticalOutput bool              `json:"identical_output"`
	Headline        *queryHeadline    `json:"headline,omitempty"`
}

// queryScaling sweeps dims × corpus sizes × top-N × worker counts over
// the scoring paths, gating on cross-path equivalence first.
func queryScaling(n, queries int, workerList, topNList, outPath string) {
	workers, err := parsePosInts(workerList, "worker count", true)
	if err != nil {
		fatal(err)
	}
	topNs, err := parsePosInts(topNList, "top-N depth", false)
	if err != nil {
		fatal(fmt.Errorf("-query-topns: %w", err))
	}
	if queries < 1 {
		queries = 1
	}

	// Corpora: the paper's evaluated dimensionalities at two scales, so
	// the sweep covers both layer count (grows with n) and layer size
	// (grows with n and with dim).
	type corpusSpec struct{ dim, n int }
	var specs []corpusSpec
	small := n / 10
	if small < 1000 {
		small = 1000
	}
	for _, d := range []int{2, 3, 4} {
		if small < n {
			specs = append(specs, corpusSpec{d, small})
		}
		specs = append(specs, corpusSpec{d, n})
	}

	fmt.Printf("=== query scaling: Gaussian, n up to %d, %d queries, seed=%d, workers %v ===\n",
		n, queries, *seedFlag, workers)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	summary := queryScalingSummary{
		Kind:            "onion-query-scaling",
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Dist:            "gaussian",
		Seed:            *seedFlag,
		Queries:         queries,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         workers,
		TopNs:           topNs,
		ServingMode:     "heap",
		IdenticalOutput: true,
	}

	for _, spec := range specs {
		start := time.Now()
		pts := workload.Points(workload.Gaussian, spec.n, spec.dim, *seedFlag+int64(spec.dim))
		recs := make([]core.Record, spec.n)
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: *parFlag})
		if err != nil {
			fatal(fmt.Errorf("build %dD n=%d: %w", spec.dim, spec.n, err))
		}
		fmt.Printf("--- %dD Gaussian, n=%d, %d layers (built in %v) ---\n",
			spec.dim, spec.n, ix.NumLayers(), time.Since(start).Round(time.Millisecond))

		ws := workload.QueryWeights(queries, spec.dim, *seedFlag+101)

		// Equivalence gate before any stopwatch: all paths, all worker
		// counts, both top-N depths.
		for _, topn := range topNs {
			if err := checkQueryEquivalence(ix, recs, ws, topn, workers); err != nil {
				summary.IdenticalOutput = false
				fatal(fmt.Errorf("%dD n=%d top-%d: %w", spec.dim, spec.n, topn, err))
			}
		}
		fmt.Printf("  equivalence: columnar ≡ +prune ≡ shells ≡ batch ≡ brute force at workers %v (delta on/off)\n", workers)

		fmt.Printf("  %5s %8s | %-15s | %12s | %10s | %8s\n",
			"topn", "workers", "mode", "ns/query", "records", "speedup")
		for _, topn := range topNs {
			for _, w := range workers {
				ix.SetParallelism(w)
				var colNs float64
				for _, m := range queryModes {
					m.set(ix)
					ns, rec, pruned, skipped := measureSolo(ix, ws, topn)
					run := queryScalingRun{
						Dim: spec.dim, N: spec.n, Layers: ix.NumLayers(),
						TopN: topn, Mode: m.name, Workers: w,
						NsPerQuery:       ns,
						QueriesPerSec:    1e9 / ns,
						RecordsEvaluated: rec,
						LayersPruned:     pruned,
						RecordsSkipped:   skipped,
					}
					sp := "       -"
					if colNs == 0 {
						colNs = ns
					} else {
						run.SpeedupVsColumnar = colNs / ns
						sp = fmt.Sprintf("%7.2fx", run.SpeedupVsColumnar)
					}
					summary.Runs = append(summary.Runs, run)
					fmt.Printf("  %5d %8d | %-15s | %12.0f | %10.1f | %s\n",
						topn, w, m.name, ns, rec, sp)
				}
			}
		}
		if spec.n == n && spec.dim >= 3 {
			runs, err := deltaLeg(ix, recs, ws, topNs)
			if err != nil {
				summary.IdenticalOutput = false
				fatal(fmt.Errorf("%dD n=%d: %w", spec.dim, spec.n, err))
			}
			summary.Runs = append(summary.Runs, runs...)
		}
		fmt.Println()
	}

	summary.Headline = pickHeadline(summary.Runs)
	if h := summary.Headline; h != nil {
		fmt.Printf("headline (%dD, n=%d, top-%d, %d worker(s), %d CPU(s)): +prune %.2fx, shells %.2fx vs columnar; shells cut records %.2fx vs +prune\n",
			h.Dim, h.N, h.TopN, h.Workers, summary.NumCPU,
			h.SpeedupPrunedVsColumnar, h.SpeedupShellsVsColumnar, h.RecordsCutShellsVsPrune)
	}

	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("summary written to %s\n", outPath)
}

// queryMode is one measured configuration of the walk. The first mode
// is the speedup baseline; the last leaves the index in its shipped
// (fully pruned, shell) configuration.
type queryMode struct {
	name string
	set  func(*core.Index)
}

var queryModes = []queryMode{
	{"columnar", func(ix *core.Index) { ix.SetShellPruning(false); ix.SetPruningMode(core.PruneNothing) }},
	{"columnar+prune", func(ix *core.Index) { ix.SetShellPruning(false); ix.SetPruningMode(core.PruneAll) }},
	{"shells", func(ix *core.Index) { ix.SetShellPruning(true); ix.SetPruningMode(core.PruneAll) }},
}

// deltaSizes are the pending-record counts of the delta-merge leg: none,
// a light backlog, and the ~1.6k a server accumulates at 150 writes/s
// between folds.
var deltaSizes = []int{0, 256, 1600}

// deltaLeg times the shipped walk (columnar+prune, one worker) over
// shallow clones of ix carrying each of deltaSizes pending records,
// two delta inserts to every tombstone, after gating every shape on
// the brute-force oracle of the merged record set.
func deltaLeg(ix *core.Index, recs []core.Record, ws [][]float64, topNs []int) ([]queryScalingRun, error) {
	dim := len(recs[0].Vector)
	fmt.Printf("  delta merge (columnar+prune, 1 worker), inserts:tombstones 2:1\n")
	fmt.Printf("  %5s %8s | %12s | %10s\n", "topn", "delta", "ns/query", "records")
	var runs []queryScalingRun
	for _, size := range deltaSizes {
		dc, merged, err := withDelta(ix, recs, size-size/3, size/3, *seedFlag+int64(505+dim))
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", size, err)
		}
		dc.SetShellPruning(false)
		dc.SetPruningMode(core.PruneAll)
		dc.SetParallelism(1)
		for _, topn := range topNs {
			if err := checkPaths(dc, ws, topn, bruteTopNs(merged, ws, topn)); err != nil {
				return nil, fmt.Errorf("delta %d top-%d: %w", size, topn, err)
			}
		}
		for _, topn := range topNs {
			ns, rec, pruned, _ := measureSolo(dc, ws, topn)
			runs = append(runs, queryScalingRun{
				Dim: dim, N: len(recs), Layers: dc.NumLayers(),
				TopN: topn, Mode: "delta-merge", Workers: 1, Delta: size,
				NsPerQuery:       ns,
				QueriesPerSec:    1e9 / ns,
				RecordsEvaluated: rec,
				LayersPruned:     pruned,
			})
			fmt.Printf("  %5d %8d | %12.0f | %10.1f\n", topn, size, ns, rec)
		}
	}
	return runs, nil
}

// withDelta returns a shallow clone of ix with ins fresh Gaussian
// records inserted and del base records tombstoned through the delta
// buffer, together with the merged live record set the oracle ranks.
// Tombstones are spread evenly over recs.
func withDelta(ix *core.Index, recs []core.Record, ins, del int, seed int64) (*core.Index, []core.Record, error) {
	dim := len(recs[0].Vector)
	dc := ix.CloneDelta()
	if ins > 0 {
		pts := workload.Points(workload.Gaussian, ins, dim, seed)
		extra := make([]core.Record, ins)
		for i, p := range pts {
			extra[i] = core.Record{ID: uint64(len(recs) + 1 + i), Vector: p}
		}
		if err := dc.InsertDelta(extra); err != nil {
			return nil, nil, err
		}
		recs = append(recs[:len(recs):len(recs)], extra...)
	}
	dead := make(map[uint64]bool, del)
	var dels []uint64
	for i := 0; i < del; i++ {
		id := recs[i*(len(recs)-ins)/del].ID
		dels = append(dels, id)
		dead[id] = true
	}
	if len(dels) > 0 {
		if _, err := dc.DeleteDelta(dels, false); err != nil {
			return nil, nil, err
		}
	}
	merged := make([]core.Record, 0, len(recs)-del)
	for _, r := range recs {
		if !dead[r.ID] {
			merged = append(merged, r)
		}
	}
	return dc, merged, nil
}

// pickHeadline selects the acceptance configuration: the largest 4D
// corpus, one worker, smallest top-N measured.
func pickHeadline(runs []queryScalingRun) *queryHeadline {
	h := &queryHeadline{Workers: 1}
	for _, r := range runs {
		if r.Dim == 4 && r.N > h.N {
			h.N = r.N
		}
	}
	if h.N == 0 {
		return nil
	}
	h.Dim = 4
	h.TopN = math.MaxInt
	for _, r := range runs {
		if r.Dim == 4 && r.N == h.N && r.TopN < h.TopN {
			h.TopN = r.TopN
		}
	}
	prunedRec, shellsRec := 0.0, 0.0
	for _, r := range runs {
		if r.Dim != h.Dim || r.N != h.N || r.TopN != h.TopN || r.Workers != 1 {
			continue
		}
		switch r.Mode {
		case "columnar+prune":
			h.SpeedupPrunedVsColumnar = r.SpeedupVsColumnar
			prunedRec = r.RecordsEvaluated
		case "shells":
			h.SpeedupShellsVsColumnar = r.SpeedupVsColumnar
			shellsRec = r.RecordsEvaluated
		}
	}
	if shellsRec > 0 {
		h.RecordsCutShellsVsPrune = prunedRec / shellsRec
	}
	return h
}

// measureSolo times ix.TopN over the query set, looping whole passes
// until enough wall-clock has elapsed for a stable ns/query. The first
// (untimed) pass warms caches and collects stats.
func measureSolo(ix *core.Index, ws [][]float64, topn int) (nsPerQuery, recAvg, prunedAvg, skippedAvg float64) {
	for _, w := range ws {
		_, st, err := ix.TopN(w, topn)
		if err != nil {
			fatal(err)
		}
		recAvg += float64(st.RecordsEvaluated)
		prunedAvg += float64(st.LayersPruned)
		skippedAvg += float64(st.RecordsSkippedByShells)
	}
	recAvg /= float64(len(ws))
	prunedAvg /= float64(len(ws))
	skippedAvg /= float64(len(ws))

	done := 0
	start := time.Now()
	for time.Since(start) < 150*time.Millisecond {
		for _, w := range ws {
			if _, _, err := ix.TopN(w, topn); err != nil {
				fatal(err)
			}
		}
		done += len(ws)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(done), recAvg, prunedAvg, skippedAvg
}

// checkQueryEquivalence asserts that every pruning mode, solo and
// batched, returns output bit-identical to a brute-force scan for every
// query at every worker count, then does the same for the shell path
// over an active delta buffer.
func checkQueryEquivalence(ix *core.Index, recs []core.Record, ws [][]float64, topn int, workers []int) error {
	defer ix.SetParallelism(workers[0])
	want := bruteTopNs(recs, ws, topn)
	for _, w := range workers {
		ix.SetParallelism(w)
		for _, m := range queryModes {
			m.set(ix)
			if err := checkPaths(ix, ws, topn, want); err != nil {
				return fmt.Errorf("%s, workers=%d: %w", m.name, w, err)
			}
		}
	}
	return checkShellsDeltaEquivalence(ix, recs, ws, topn)
}

// checkShellsDeltaEquivalence asserts the §6 shell path composes with
// the LSM write path: on a shallow clone carrying an active delta
// buffer, shells on and off, solo and batched, must all match a
// brute-force scan of the merged record set. Two delta shapes are
// exercised — insert-only (shell tables stay live alongside the merge
// stream) and mixed inserts + tombstones (the shell path must stand
// down so the layer maximum still covers every base record).
func checkShellsDeltaEquivalence(ix *core.Index, recs []core.Record, ws [][]float64, topn int) error {
	for _, shape := range []struct {
		name     string
		ins, del int
	}{
		{"insert-only", 48, 0},
		{"mixed", 48, 16},
	} {
		dc, merged, err := withDelta(ix, recs, shape.ins, shape.del, *seedFlag+303)
		if err != nil {
			return fmt.Errorf("delta %s: %w", shape.name, err)
		}
		want := bruteTopNs(merged, ws, topn)
		for _, shells := range []bool{false, true} {
			dc.SetShellPruning(shells)
			if err := checkPaths(dc, ws, topn, want); err != nil {
				return fmt.Errorf("delta %s, shells=%v: %w", shape.name, shells, err)
			}
		}
	}
	return nil
}

// bruteTopNs is the oracle ranking of every query.
func bruteTopNs(recs []core.Record, ws [][]float64, topn int) [][]core.Result {
	want := make([][]core.Result, len(ws))
	for q, w := range ws {
		want[q] = bruteTopN(recs, w, topn)
	}
	return want
}

// checkPaths runs every query solo through TopN and once through
// TopNBatch, requiring both to match the oracle ranking want and each
// other bitwise.
func checkPaths(ix *core.Index, ws [][]float64, topn int, want [][]core.Result) error {
	batched, _, err := ix.TopNBatch(ws, topn)
	if err != nil {
		return err
	}
	for q, w := range ws {
		res, _, err := ix.TopN(w, topn)
		if err != nil {
			return err
		}
		if err := diffRanking(res, want[q], false); err != nil {
			return fmt.Errorf("query %d: brute force: %w", q, err)
		}
		if err := diffRanking(batched[q], res, true); err != nil {
			return fmt.Errorf("query %d: TopNBatch diverges from TopN: %w", q, err)
		}
	}
	return nil
}
