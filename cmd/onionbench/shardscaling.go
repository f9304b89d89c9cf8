package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Shard-scaling mode. `onionbench -shard-scaling` stands up an
// in-process cluster per configuration — S shard groups × R replicas,
// each replica a real onionserve instance on a loopback port — puts a
// scatter-gather coordinator in front, and gates every merged answer
// bitwise (IDs, score bits, order) against a one-node oracle index over
// the same corpus. The gate is the package's correctness claim made
// executable: sharding must be invisible. Layer is excluded from the
// comparison (it is shard-local by construction; see internal/shard).
//
// Three gates per configuration: single queries, the batch endpoint,
// and mutation routing (coordinator-routed inserts/deletes vs the same
// ops on the oracle clone, then the query gate again). A final
// hedge exercise slows one replica artificially and verifies hedged
// backups fire, win, and change nothing about the answers.

// shardScalingReport is the JSON emitted to -shard-out.
type shardScalingReport struct {
	Kind       string            `json:"kind"` // "onionserve-shard-scaling"
	Generated  string            `json:"generated"`
	Points     int               `json:"points"`
	Dim        int               `json:"dim"`
	Queries    int               `json:"queries"`
	TopNs      []int             `json:"topns"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Configs    []shardConfigRun  `json:"configs"`
	Hedge      *hedgeExerciseRun `json:"hedge"`
}

// shardConfigRun is one (shards × replicas × partitioner) measurement.
type shardConfigRun struct {
	Shards        int     `json:"shards"`
	Replicas      int     `json:"replicas"`
	Partition     string  `json:"partition"` // hash | cluster
	ShardSizes    []int   `json:"shard_sizes"`
	QueriesExact  bool    `json:"queries_exact"`  // bitwise vs oracle
	BatchExact    bool    `json:"batch_exact"`    // batch endpoint vs oracle
	MutationExact bool    `json:"mutation_exact"` // routed writes vs oracle clone
	QPS           float64 `json:"qps"`
	LatencyMS     struct {
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
	} `json:"latency_ms"`
}

// hedgeExerciseRun records the slow-replica exercise.
type hedgeExerciseRun struct {
	HedgesFired int64 `json:"hedges_fired"`
	HedgeWins   int64 `json:"hedge_wins"`
	Exact       bool  `json:"exact"`
}

// cluster is S×R live onionserve instances plus their endpoint lists.
type benchCluster struct {
	endpoints [][]string
	servers   []*server.Server
	httpSrvs  []*http.Server
}

func (bc *benchCluster) close() {
	for _, hs := range bc.httpSrvs {
		hs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range bc.servers {
		s.Close(ctx)
	}
}

// startCluster builds one Onion index per shard from its partition and
// serves it from R replicas. Replicas of a group share the built index:
// the server clones before mutating, so sharing the starting snapshot
// is safe and saves S×(R-1) builds.
func startCluster(parts [][]core.Record, replicas int) *benchCluster {
	bc := &benchCluster{endpoints: make([][]string, len(parts))}
	for gi, part := range parts {
		ix, err := core.Build(part, core.Options{Seed: *seedFlag})
		if err != nil {
			fatal(fmt.Errorf("build shard %d: %w", gi, err))
		}
		for r := 0; r < replicas; r++ {
			srv := server.New(ix, server.Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			hs := &http.Server{Handler: srv.Handler()}
			go hs.Serve(ln)
			bc.servers = append(bc.servers, srv)
			bc.httpSrvs = append(bc.httpSrvs, hs)
			bc.endpoints[gi] = append(bc.endpoints[gi], "http://"+ln.Addr().String())
		}
	}
	return bc
}

func shardScaling(n, queries int, countsSpec, replicasSpec, outPath string) {
	counts, err := parsePosInts(countsSpec, "shard count", true)
	if err != nil {
		fatal(fmt.Errorf("-shard-counts: %w", err))
	}
	replicaCounts, err := parsePosInts(replicasSpec, "replica count", true)
	if err != nil {
		fatal(fmt.Errorf("-shard-replicas: %w", err))
	}
	const dim = 4
	topns := []int{1, 10, 100}

	fmt.Printf("=== shard-scaling: 4D Gaussian n=%d, shards=%v, replicas=%v, %d queries ===\n",
		n, counts, replicaCounts, queries)

	pts := workload.Points(workload.Gaussian, n, dim, *seedFlag)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}
	start := time.Now()
	oracle, err := core.Build(recs, core.Options{Seed: *seedFlag})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built one-node oracle (%d layers) in %v\n", oracle.NumLayers(), time.Since(start).Round(time.Millisecond))

	ws := workload.QueryWeights(queries, dim, *seedFlag+31)

	rep := shardScalingReport{
		Kind:       "onionserve-shard-scaling",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Points:     n,
		Dim:        dim,
		Queries:    queries,
		TopNs:      topns,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	type configSpec struct {
		shards, replicas int
		partition        string
	}
	var specs []configSpec
	for _, s := range counts {
		for _, r := range replicaCounts {
			specs = append(specs, configSpec{s, r, "hash"})
		}
	}
	// One cluster-partitioned configuration rides along: the exactness
	// gate must hold regardless of how records were dealt out, and the
	// broadcast-delete path only exists under vector-dependent
	// partitioning.
	if len(counts) > 1 {
		specs = append(specs, configSpec{counts[1], replicaCounts[0], "cluster"})
	}

	for _, spec := range specs {
		run := runShardConfig(spec.shards, spec.replicas, spec.partition, recs, oracle, ws, topns)
		rep.Configs = append(rep.Configs, run)
		status := "exact"
		if !run.QueriesExact || !run.BatchExact || !run.MutationExact {
			status = "MISMATCH"
		}
		fmt.Printf("  shards=%d replicas=%d %-7s sizes=%v  %s  %.0f qps  p50=%.2fms p99=%.2fms\n",
			spec.shards, spec.replicas, spec.partition, run.ShardSizes, status,
			run.QPS, run.LatencyMS.P50, run.LatencyMS.P99)
		if status == "MISMATCH" {
			fatal(fmt.Errorf("shards=%d replicas=%d %s: merged output diverged from the one-node oracle",
				spec.shards, spec.replicas, spec.partition))
		}
	}

	hedge := runHedgeExercise(recs, oracle, ws[:min(len(ws), 32)])
	rep.Hedge = &hedge
	fmt.Printf("  hedge exercise: fired=%d wins=%d exact=%v\n", hedge.HedgesFired, hedge.HedgeWins, hedge.Exact)
	if !hedge.Exact {
		fatal(fmt.Errorf("hedge exercise: answers diverged from the oracle"))
	}
	if hedge.HedgesFired == 0 || hedge.HedgeWins == 0 {
		fatal(fmt.Errorf("hedge exercise: expected hedges to fire and win against a slowed replica (fired=%d wins=%d)",
			hedge.HedgesFired, hedge.HedgeWins))
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}

func runShardConfig(shards, replicas int, partition string, recs []core.Record, oracle *core.Index, ws [][]float64, topns []int) shardConfigRun {
	run := shardConfigRun{Shards: shards, Replicas: replicas, Partition: partition}

	var part shard.Partitioner
	switch partition {
	case "hash":
		p, err := shard.NewHashPartitioner(shards)
		if err != nil {
			fatal(err)
		}
		part = p
	case "cluster":
		p, err := shard.NewClusterPartitioner(recs, shards, *seedFlag)
		if err != nil {
			fatal(err)
		}
		part = p
	default:
		fatal(fmt.Errorf("unknown partition %q", partition))
	}
	parts := shard.Partition(part, recs)
	for _, p := range parts {
		run.ShardSizes = append(run.ShardSizes, len(p))
	}

	bc := startCluster(parts, replicas)
	defer bc.close()
	coord, err := shard.New(part, bc.endpoints, shard.Config{
		// Deterministic gate runs: no background probes, no hedging (the
		// hedge exercise covers that path explicitly).
		ProbeInterval: -1,
		HedgeDelay:    -1,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	// Gate 1: every query × every N, bitwise against the oracle. The
	// latency sample is the topn=10 pass.
	run.QueriesExact = true
	var lats []time.Duration
	measured := time.Duration(0)
	for _, topn := range topns {
		for _, w := range ws {
			t0 := time.Now()
			res, err := coord.TopN(ctx, w, topn)
			d := time.Since(t0)
			if err != nil {
				fatal(fmt.Errorf("coordinator topn: %w", err))
			}
			if topn == 10 {
				lats = append(lats, d)
				measured += d
			}
			want, _, err := oracle.TopN(w, topn)
			if err != nil {
				fatal(err)
			}
			if diffRanking(res.Results, want, false) != nil {
				run.QueriesExact = false
			}
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		run.QPS = float64(len(lats)) / measured.Seconds()
		run.LatencyMS.P50 = ms(lats[len(lats)/2])
		run.LatencyMS.P99 = ms(lats[int(0.99*float64(len(lats)-1))])
		run.LatencyMS.Mean = ms(sum / time.Duration(len(lats)))
	}

	// Gate 2: the batch endpoint, positionally.
	run.BatchExact = true
	batch, err := coord.TopNBatch(ctx, ws, 10)
	if err != nil {
		fatal(fmt.Errorf("coordinator batch: %w", err))
	}
	for q, w := range ws {
		want, _, err := oracle.TopN(w, 10)
		if err != nil {
			fatal(err)
		}
		if diffRanking(batch.Queries[q].Results, want, false) != nil {
			run.BatchExact = false
		}
	}

	// Gate 3: mutation routing. Insert a fresh batch and delete a spread
	// of existing IDs through the coordinator, apply the same ops to an
	// oracle clone, and require the query gate to hold on the mutated
	// state. Every replica of a group must converge (queries below may
	// land on any replica).
	run.MutationExact = true
	mutOracle := oracle.CloneDelta()
	fresh := workload.Points(workload.Gaussian, 64, oracle.Dim(), *seedFlag+97)
	ins := make([]core.Record, len(fresh))
	for i, p := range fresh {
		ins[i] = core.Record{ID: uint64(len(recs) + i + 1), Vector: p}
	}
	if _, err := coord.Insert(ctx, ins); err != nil {
		fatal(fmt.Errorf("coordinator insert: %w", err))
	}
	if err := mutOracle.InsertDelta(ins); err != nil {
		fatal(err)
	}
	var del []uint64
	for id := uint64(7); id <= uint64(len(recs)) && len(del) < 64; id += uint64(len(recs)/64 + 1) {
		del = append(del, id)
	}
	applied, err := coord.Delete(ctx, del)
	if err != nil {
		fatal(fmt.Errorf("coordinator delete: %w", err))
	}
	if applied != len(del) {
		fatal(fmt.Errorf("coordinator delete: applied %d of %d", applied, len(del)))
	}
	if _, err := mutOracle.DeleteDelta(del, false); err != nil {
		fatal(err)
	}
	for _, w := range ws[:min(len(ws), 16)] {
		res, err := coord.TopN(ctx, w, 10)
		if err != nil {
			fatal(fmt.Errorf("post-mutation topn: %w", err))
		}
		want, _, err := mutOracle.TopN(w, 10)
		if err != nil {
			fatal(err)
		}
		if diffRanking(res.Results, want, false) != nil {
			run.MutationExact = false
		}
	}
	return run
}

// runHedgeExercise serves one shard from a fast replica and a slowed
// one (every request delayed well past the hedge delay), verifies that
// hedged backups fire and win, and that answers stay exact — the tail
// cut must be invisible to correctness.
func runHedgeExercise(recs []core.Record, oracle *core.Index, ws [][]float64) hedgeExerciseRun {
	part, err := shard.NewHashPartitioner(1)
	if err != nil {
		fatal(err)
	}
	ix, err := core.Build(recs, core.Options{Seed: *seedFlag})
	if err != nil {
		fatal(err)
	}
	endpoints := make([]string, 2)
	var servers []*server.Server
	var https []*http.Server
	for r := 0; r < 2; r++ {
		srv := server.New(ix, server.Config{})
		var handler http.Handler = srv.Handler()
		if r == 0 {
			// The slow replica: every request stalls long past HedgeDelay,
			// so a fan-out that picks it as primary must hedge to win.
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				select {
				case <-time.After(200 * time.Millisecond):
				case <-req.Context().Done():
					return
				}
				inner.ServeHTTP(w, req)
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln)
		servers = append(servers, srv)
		https = append(https, hs)
		endpoints[r] = "http://" + ln.Addr().String()
	}
	defer func() {
		for _, hs := range https {
			hs.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Close(ctx)
		}
	}()

	coord, err := shard.New(part, [][]string{endpoints}, shard.Config{
		HedgeDelay:    5 * time.Millisecond,
		ProbeInterval: -1,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Close()

	out := hedgeExerciseRun{Exact: true}
	ctx := context.Background()
	for _, w := range ws {
		res, err := coord.TopN(ctx, w, 10)
		if err != nil {
			fatal(fmt.Errorf("hedged topn: %w", err))
		}
		want, _, err := oracle.TopN(w, 10)
		if err != nil {
			fatal(err)
		}
		if diffRanking(res.Results, want, false) != nil {
			out.Exact = false
		}
	}
	var vars struct {
		HedgesFired int64 `json:"hedges_fired"`
		HedgeWins   int64 `json:"hedge_wins"`
	}
	if err := json.Unmarshal([]byte(coord.Vars().String()), &vars); err != nil {
		fatal(fmt.Errorf("parse coordinator metrics: %w", err))
	}
	out.HedgesFired = vars.HedgesFired
	out.HedgeWins = vars.HedgeWins
	return out
}
