package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
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
// TopN and TopNBatch, shells on and off, must match the oracle's score
// bits rank by rank and agree with each other bitwise (IDs, score
// bits, layers, order). Shells are additionally checked with an active
// delta buffer — insert-only (shell tables live) and with tombstones
// (the shell path must stand down for deadMax) — so the §6 structure
// composes with the LSM write path. Any mismatch exits non-zero —
// scripts/ci.sh runs a small sweep as a regression gate on exactly
// this property.
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
	workers, err := parseWorkerList(workerList)
	if err != nil {
		fatal(err)
	}
	topNs, err := parseIntList(topNList)
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
	oracle := newBruteOracle(recs, ws, topn)
	for _, w := range workers {
		ix.SetParallelism(w)
		for _, m := range queryModes {
			m.set(ix)
			if err := oracle.checkPaths(ix, ws, topn); err != nil {
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
// down so deadMax still covers every base record).
func checkShellsDeltaEquivalence(ix *core.Index, recs []core.Record, ws [][]float64, topn int) error {
	dim := len(recs[0].Vector)
	extraPts := workload.Points(workload.Gaussian, 48, dim, *seedFlag+303)
	extra := make([]core.Record, len(extraPts))
	for i, p := range extraPts {
		extra[i] = core.Record{ID: uint64(len(recs) + 1 + i), Vector: p}
	}
	var dels []uint64
	for i := 0; i < len(recs) && len(dels) < 16; i += 1 + len(recs)/17 {
		dels = append(dels, recs[i].ID)
	}
	for _, shape := range []struct {
		name string
		dels []uint64
	}{
		{"insert-only", nil},
		{"mixed", dels},
	} {
		dc := ix.CloneDelta()
		if err := dc.InsertDelta(extra); err != nil {
			return fmt.Errorf("delta %s: %w", shape.name, err)
		}
		if len(shape.dels) > 0 {
			if _, err := dc.DeleteDelta(shape.dels, false); err != nil {
				return fmt.Errorf("delta %s: %w", shape.name, err)
			}
		}
		dead := make(map[uint64]bool, len(shape.dels))
		for _, id := range shape.dels {
			dead[id] = true
		}
		merged := make([]core.Record, 0, len(recs)+len(extra))
		for _, r := range recs {
			if !dead[r.ID] {
				merged = append(merged, r)
			}
		}
		merged = append(merged, extra...)
		oracle := newBruteOracle(merged, ws, topn)
		for _, shells := range []bool{false, true} {
			dc.SetShellPruning(shells)
			if err := oracle.checkPaths(dc, ws, topn); err != nil {
				return fmt.Errorf("delta %s, shells=%v: %w", shape.name, shells, err)
			}
		}
	}
	return nil
}

// bruteOracle holds, per query, the descending top-n score sequence of
// a full scan, plus every record's vector so a reported ID's score can
// be recomputed. Scores use the index's accumulation order, so equality
// is bitwise.
type bruteOracle struct {
	vec map[uint64][]float64
	top [][]float64
}

func newBruteOracle(recs []core.Record, ws [][]float64, topn int) *bruteOracle {
	o := &bruteOracle{vec: make(map[uint64][]float64, len(recs)), top: make([][]float64, len(ws))}
	for _, r := range recs {
		o.vec[r.ID] = r.Vector
	}
	scores := make([]float64, len(recs))
	for q, w := range ws {
		for i, r := range recs {
			scores[i] = dot(w, r.Vector)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		o.top[q] = append([]float64(nil), scores[:min(topn, len(scores))]...)
	}
	return o
}

// checkPaths runs every query solo through TopN and once through
// TopNBatch, requiring both to match the oracle and each other bitwise.
func (o *bruteOracle) checkPaths(ix *core.Index, ws [][]float64, topn int) error {
	batched, _, err := ix.TopNBatch(ws, topn)
	if err != nil {
		return err
	}
	for q, w := range ws {
		res, _, err := ix.TopN(w, topn)
		if err != nil {
			return err
		}
		if err := o.check(q, w, res); err != nil {
			return fmt.Errorf("query %d: %w", q, err)
		}
		if !sameResults(res, batched[q]) {
			return fmt.Errorf("query %d: TopNBatch diverges from TopN", q)
		}
	}
	return nil
}

// check verifies one result list against the oracle: the descending
// score sequence must match bitwise (ties can permute IDs between
// equally-scored records, so IDs are checked by recomputation instead
// of position).
func (o *bruteOracle) check(q int, w []float64, got []core.Result) error {
	want := o.top[q]
	if len(got) != len(want) {
		return fmt.Errorf("brute force: %d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if math.Float64bits(r.Score) != math.Float64bits(want[i]) {
			return fmt.Errorf("brute force: rank %d score %v, want %v", i, r.Score, want[i])
		}
		v, ok := o.vec[r.ID]
		if !ok || math.Float64bits(dot(w, v)) != math.Float64bits(r.Score) {
			return fmt.Errorf("brute force: rank %d id %d does not score %v", i, r.ID, r.Score)
		}
	}
	return nil
}

// checkBruteForce verifies one result list against a full scan of recs.
func checkBruteForce(recs []core.Record, w []float64, topn int, got []core.Result) error {
	return newBruteOracle(recs, [][]float64{w}, topn).check(0, w, got)
}

// dot is the index's score: Σ_j w_j·x_j accumulated in attribute order.
func dot(w, v []float64) float64 {
	var s float64
	for j, wj := range w {
		s += wj * v[j]
	}
	return s
}

// sameResults compares two result lists bitwise (rank order, IDs,
// score bits, layer of origin).
func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Layer != b[i].Layer ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
