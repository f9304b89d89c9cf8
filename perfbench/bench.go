package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed runs the same workloads on inputs nobody tuned on: a
// change that claims a gain shows it on its own seeds and then on this
// one (see README.md).
const heldOutSeed = 104729

const (
	setups   = 3  // set-ups per untraced run; setup_s is their median
	restarts = 11 // crash restarts on an empty log; restart_s is their median
	// restartGap spaces the restarts out, so that one burst of load from
	// elsewhere on a shared host cannot slow all of them.
	restartGap = 300 * time.Millisecond
	// crashWrites are logged before the last crash. Recovery replays
	// each through a synchronous re-peel cascade (0.02-1 s apiece at
	// these sizes), which bounds the count and puts the crashes before
	// the measured phase, whose log would take minutes to replay.
	crashWrites   = 6
	pollEvery     = 500 * time.Millisecond
	warmup        = time.Second
	ladderStep    = 1500 * time.Millisecond
	ladderWindows = 3
	ladderSettle  = 200 * time.Millisecond
	sloP99Ms      = 10.0
	sampleQueries = 16 // seeded queries checked against the model after writes
	readyTimeout  = 60 * time.Second
)

// ladder is the fixed set of read rates slo_qps is searched over: 250
// req/s upward in steps of 5%.
var ladder = func() []float64 {
	var rs []float64
	for r := 250.0; r < 40_000; r *= 1.05 {
		rs = append(rs, math.Round(r))
	}
	return rs
}()

type bench struct {
	sp       spec
	seed     int64
	seconds  float64
	serveBin string
	ctlBin   string
	work     string
	traceDir string
	rep      *report

	c      corpus
	csv    string
	tr     *traffic
	oracle [][]ranked // top-n of every pool vector
	model  *model
	hc     *http.Client // control plane: health, metrics, checks

	began time.Time // start of the run, for the stage log on stderr

	attempted, failed int
	wrong             int // wrong answers and lost acknowledged writes
}

func (b *bench) correct() bool { return b.wrong == 0 }

// stage logs the end of a stage with the run's elapsed time to stderr.
func (b *bench) stage(name string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(b.began).Seconds(), name)
}

func (b *bench) fail(wrong bool, format string, args ...any) {
	b.failed++
	if wrong {
		b.wrong++
	}
	if b.failed <= 8 { // the first few are enough to diagnose
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func (b *bench) run(traced bool) error {
	b.began = time.Now()
	hostHeader(b.rep)
	b.rep.head("workload", b.sp.name)
	role := "development"
	if b.seed == heldOutSeed {
		role = "held out: recheck a claim here, never tune on it"
	}
	b.rep.head("seed", fmt.Sprintf("%d (%s)", b.seed, role))
	b.rep.head("corpus", fmt.Sprintf("%d x %dD gaussian", b.sp.n, b.sp.dim))
	b.rep.head("traffic", b.trafficDesc())
	b.rep.head("generator", fmt.Sprintf("open loop, fixed schedule, %d connections, %d senders, latency from due time", senders, senders))
	b.hc = &http.Client{Timeout: requestTimeout}

	b.c = makeCorpus(b.sp, b.seed)
	b.csv = filepath.Join(b.work, "corpus.csv")
	if err := writeCSV(b.csv, b.c); err != nil {
		return err
	}
	b.model = newModel(b.c)
	b.tr = newTraffic(b.sp, b.seed, b.c)
	b.stage("corpus")
	if traced {
		return b.runTraced()
	}
	return b.runUntraced(false)
}

func (b *bench) trafficDesc() string {
	var w string
	switch {
	case b.sp.pool == 0:
		w = "fresh uniform weights"
	case b.sp.zipfS > 1:
		w = fmt.Sprintf("zipf(s=%g) over a pool of %d", b.sp.zipfS, b.sp.pool)
	default:
		w = fmt.Sprintf("uniform over a pool of %d", b.sp.pool)
	}
	s := fmt.Sprintf("%g req/s of top-%d (%s), 1 in %d a batch of %d", b.sp.readRate, b.sp.topN, w, batchEvery, batchSize)
	if b.sp.writeRate > 0 {
		s += fmt.Sprintf(", plus %g writes/s (insert:delete 2:1)", b.sp.writeRate)
	} else {
		s += fmt.Sprintf("; then a %ds write tail at %d writes/s", tailSeconds, tailRate)
	}
	return s
}

func writeCSV(path string, c corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, v := range c.vecs {
		w.WriteString(strconv.FormatUint(c.ids[i], 10))
		for _, x := range v {
			w.WriteByte(',')
			w.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverArgs are deployment settings only; every algorithmic option
// stays at onionserve's default, so a change of a default is measured.
func serverArgs(index, addr, dataDir string) []string {
	return []string{"-index", index, "-addr", addr, "-data-dir", dataDir, "-cache-bytes", strconv.Itoa(cacheBytes)}
}

// setup hands the CSV to onionctl build and starts onionserve on the
// index, returning once it answers /v1/healthz/ready.
func (b *bench) setup(i int) (*serverProc, time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	index := filepath.Join(dir, "corpus.onion")
	start := time.Now()
	if err := runCmd(b.ctlBin, "build", "-csv", b.csv, "-index", index); err != nil {
		return nil, 0, err
	}
	p, err := startServer(b.serveBin, serverArgs(index, addr, filepath.Join(dir, "data")), filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(b.hc, p, readyTimeout); err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, tailFile(filepath.Join(dir, "server.log")))
	}
	return p, time.Since(start), nil
}

func tailFile(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return string(bytes.TrimSpace(b))
}

// setupMany sets up k times and keeps the last server; setup_s is the
// median.
func (b *bench) setupMany(k int) (*serverProc, error) {
	var times []float64
	var p *serverProc
	for i := 0; i < k; i++ {
		var d time.Duration
		var err error
		p, d, err = b.setup(i)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if i < k-1 {
			p.kill()
			if err := os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("setup-%d", i))); err != nil {
				return nil, err
			}
		}
	}
	b.rep.set("setup_s", median(times), "s")
	b.stage(fmt.Sprintf("%d set-ups", k))
	b.rep.head("server_flags", strings.Join(p.args, " "))
	return p, nil
}

// check verifies a finished phase: read answers against the oracle,
// acknowledged writes into the model. It returns the phase summary.
func (b *bench) check(ops []op, out []outcome) phaseStats {
	for i := range ops {
		o, r := &ops[i], &out[i]
		b.attempted++
		if r.failed() {
			b.fail(false, "%s request failed: %v", kindNames[o.kind], r.err)
			continue
		}
		switch o.kind {
		case kInsert, kDelete:
			b.model.apply(o)
		default:
			if err := checkRead(o, r.body, b.oracle, b.sp.topN); err != nil {
				b.fail(true, "wrong %s answer: %v", kindNames[o.kind], err)
			}
			r.body = nil
		}
	}
	return summarise(ops, out)
}

func (b *bench) phase(lg *loadgen, d time.Duration, readRate, writeRate float64) ([]op, []outcome, phaseStats) {
	ops := b.tr.phase(d, readRate, writeRate)
	out := lg.run(ops, time.Now().Add(5*time.Millisecond))
	return ops, out, b.check(ops, out)
}

// writeTail sends the write tail of a workload whose measured phase
// has no writes, so every workload measures acknowledgements.
func (b *bench) writeTail(lg *loadgen) phaseStats {
	_, _, ps := b.phase(lg, tailSeconds*time.Second, 0, tailRate)
	return ps
}

// counters is the server's /v1/metrics and CPU time at one instant.
type counters struct {
	vars serverVars
	cpu  time.Duration
}

func (b *bench) snapshot(p *serverProc) (counters, error) {
	v, err := fetchVars(b.hc, p.addr)
	if err != nil {
		return counters{}, err
	}
	cpu, err := procCPU(p.pid())
	return counters{vars: v, cpu: cpu}, err
}

// endToEndMetrics go into the result of an untraced run.
var endToEndMetrics = []string{"setup_s", "topn_p50_ms", "batch_p50_ms",
	"server_rss_mb", "disk_bytes_per_user_byte"}

// runUntraced drives the onionserve process. With diag (the untraced
// pass of a traced run) it sets up once, samples the delta backlog
// during the measured phase and searches the slo ladder.
func (b *bench) runUntraced(diag bool) error {
	b.rep.selected = endToEndMetrics
	k := setups
	if diag {
		k = 1
	}
	p, err := b.setupMany(k)
	if err != nil {
		return err
	}
	if p, err = b.crashRestarts(p); err != nil {
		return err
	}
	b.poolOracle()
	// server_rss_mb is the peak while serving: the recovery replay before
	// this point peaks on its own.
	if err := resetHWM(p.pid()); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	lg := &loadgen{hc: newHTTPClient(), base: "http://" + p.addr}
	defer lg.hc.CloseIdleConnections()
	var poll func()
	var pending []float64
	if diag {
		poll = func() {
			if v, err := fetchVars(b.hc, p.addr); err == nil {
				pending = append(pending, v.num("delta_pending"))
			}
		}
	}
	ps, err := b.measure(p, lg, poll)
	if err != nil {
		return err
	}
	if diag {
		b.rep.set("core.delta_pending_p50", median(pending), "records")
		b.rep.set("core.delta_pending_max", maxOf(pending), "records")
		b.rep.set("slo_qps", b.sloSearch(lg), "req/s")
		b.stage("slo ladder")
	}
	return b.finish(p, lg, ps)
}

// poolOracle ranks every pool vector by brute force over the model.
func (b *bench) poolOracle() {
	if b.tr.pool == nil {
		return
	}
	ids, vecs := b.model.arrays()
	b.oracle = poolOracle(ids, vecs, b.tr.pool, b.sp.topN)
	b.stage("pool oracle")
}

// measure runs the warm-up and the measured phase and reports the
// phase's end-to-end figures and its /v1/metrics deltas. A non-nil poll
// is called every pollEvery during the phase.
func (b *bench) measure(p *serverProc, lg *loadgen, poll func()) (phaseStats, error) {
	b.phase(lg, warmup, b.sp.readRate, b.sp.writeRate)
	before, err := b.snapshot(p)
	if err != nil {
		return phaseStats{}, err
	}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if poll == nil {
			return
		}
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				poll()
			}
		}
	}()
	_, _, ps := b.phase(lg, b.measured(), b.sp.readRate, b.sp.writeRate)
	close(stop)
	<-polled
	after, err := b.snapshot(p)
	if err != nil {
		return phaseStats{}, err
	}
	b.stage("warm-up and measured phase")
	b.header(after.vars)
	b.endToEnd(ps)
	b.countersReport(before, after, ps)
	if b.sp.writeRate > 0 {
		b.writeCounters(before, after, ps)
	}
	return ps, nil
}

// finish sends the write tail (workloads without writes of their own),
// checks the sample queries against the model and takes the server's
// memory and disk figures.
func (b *bench) finish(p *serverProc, lg *loadgen, ps phaseStats) error {
	ack := ps
	if b.sp.writeRate == 0 {
		before, err := b.snapshot(p)
		if err != nil {
			return err
		}
		ack = b.writeTail(lg)
		after, err := b.snapshot(p)
		if err != nil {
			return err
		}
		b.writeCounters(before, after, ack)
	}
	b.rep.set("ack_p50_ms", median(ackLat(ack)), "ms")
	b.rep.set("ack_p99_ms", quantile(ackLat(ack), 0.99), "ms")
	if err := b.sampleCheck(p, "after the measured phase"); err != nil {
		return err
	}
	hwm, err := procHWM(p.pid())
	if err != nil {
		return err
	}
	b.rep.set("server_rss_mb", float64(hwm)/(1<<20), "MiB")
	disk, err := dirBytes(dataDirOf(p))
	if err != nil {
		return err
	}
	b.rep.set("disk_bytes_per_user_byte", float64(disk)/float64(b.userBytes()), "ratio")
	b.stage("write tail and checks")
	p.kill()
	return nil
}

func (b *bench) measured() time.Duration {
	return time.Duration(b.seconds * float64(time.Second))
}

// userBytes is the live data the user stored: (dim+1) float64 per record.
func (b *bench) userBytes() int64 {
	return int64(len(b.model.live)) * int64(b.sp.dim+1) * 8
}

func dataDirOf(p *serverProc) string {
	for i, a := range p.args {
		if a == "-data-dir" {
			return p.args[i+1]
		}
	}
	return ""
}

func ackLat(ps phaseStats) []float64 {
	return append(append([]float64(nil), ps.lat[kInsert]...), ps.lat[kDelete]...)
}

func (b *bench) header(v serverVars) {
	b.rep.head("serving_mode", v.str("serving_mode"))
	b.rep.head("fsync", v.str("wal.fsync_mode")+" (onionserve default: one fsync per group commit)")
	b.rep.head("cache_bytes", strconv.Itoa(cacheBytes))
}

func (b *bench) endToEnd(ps phaseStats) {
	b.rep.set("topn_p50_ms", median(ps.lat[kTopN]), "ms")
	b.rep.set("topn_p99_ms", quantile(ps.lat[kTopN], 0.99), "ms")
	b.rep.set("batch_p50_ms", median(ps.lat[kBatch]), "ms")
	b.rep.set("batch_p99_ms", quantile(ps.lat[kBatch], 0.99), "ms")
	b.rep.set("topn_samples", float64(ps.count[kTopN]), "count")
	b.rep.set("batch_samples", float64(ps.count[kBatch]), "count")
	b.rep.set("client.lag_p50_ms", median(ps.lagMs), "ms")
	b.rep.set("client.lag_p99_ms", quantile(ps.lagMs, 0.99), "ms")
	b.rep.set("client.achieved_rps", ps.achieved, "req/s")
	if ps.lagGrew {
		b.rep.note("generator lag grew across the measured phase: the server fell behind the schedule")
		b.rep.set("client.lag_grew", 1, "bool")
	} else {
		b.rep.set("client.lag_grew", 0, "bool")
	}
}

// countersReport turns /v1/metrics deltas over the measured phase into
// per-layer counts.
func (b *bench) countersReport(before, after counters, ps phaseStats) {
	d := func(k string) float64 { return after.vars.num(k) - before.vars.num(k) }
	misses := d("cache_misses")
	lookups := d("cache_hits") + misses + d("cache_coalesced")
	b.rep.set("cache.hit_rate", ratio(d("cache_hits")+d("cache_coalesced"), lookups), "ratio")
	b.rep.set("cache.evictions", d("cache_evictions"), "count")
	b.rep.set("cache.invalidations", d("cache_invalidations"), "count")
	b.rep.set("server.rejected", d("queries_rejected"), "count")
	b.rep.set("server.timeouts", d("queries_timeout"), "count")
	evaluated := d("records_evaluated")
	b.rep.set("core.records_evaluated_per_query", ratio(evaluated, misses), "records")
	b.rep.set("core.layers_accessed_per_query", ratio(d("layers_accessed"), misses), "layers")
	b.rep.set("core.layers_pruned_per_query", ratio(d("layers_pruned"), misses), "layers")
	b.rep.set("core.shells_records_skipped_per_query", ratio(d("shells_records_skipped"), misses), "records")
	b.rep.set("core.results_per_record_evaluated", ratio(misses*float64(b.sp.topN), evaluated), "ratio")
	b.rep.set("storage.checkpoint_bytes_per_user_byte", after.vars.num("wal.checkpoint_bytes")/float64(b.userBytes()), "ratio")
	requests := float64(len(ps.lagMs))
	b.rep.set("proc.cpu_us_per_request", ratio(float64(after.cpu-before.cpu)/1e3, requests), "us")
}

// writeCounters reports the write path's counts over the phase that
// carried the writes: the measured phase of mixed-rw, the write tail of
// the others. A user byte is (dim+1)*8 per insert and 8 per delete.
func (b *bench) writeCounters(before, after counters, ps phaseStats) {
	d := func(k string) float64 { return after.vars.num(k) - before.vars.num(k) }
	b.rep.set("core.compactions", d("compactions"), "count")
	writes := float64(ps.count[kInsert] + ps.count[kDelete])
	b.rep.set("wal.fsyncs_per_write", ratio(d("wal.fsyncs"), writes), "ratio")
	user := float64(ps.count[kInsert])*float64(b.sp.dim+1)*8 + float64(ps.count[kDelete])*8
	b.rep.set("wal.bytes_per_user_byte", ratio(d("wal.bytes_written"), user), "ratio")
}

// sloSearch binary-searches the fixed ladder for the highest read rate
// that meets the latency limit with no growing generator lag and no
// failure, writes (if any) running beside at the workload's rate. A
// rung is judged on the median of its windows' topn p99, so one
// stall of the shared host fails a window, not the rung.
func (b *bench) sloSearch(lg *loadgen) float64 {
	lo, hi := -1, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		_, _, ps := b.phase(lg, ladderStep, ladder[mid], b.sp.writeRate)
		lat := ps.lat[kTopN]
		var p99s []float64
		for w := 0; w < ladderWindows; w++ {
			p99s = append(p99s, quantile(lat[w*len(lat)/ladderWindows:(w+1)*len(lat)/ladderWindows], 0.99))
		}
		p99 := median(p99s)
		pass := p99 <= sloP99Ms && !ps.lagGrew && ps.failed == 0
		fmt.Fprintf(os.Stderr, "perfbench: ladder %6.0f req/s: window topn p99 %.2f ms (windows %.2f), lag grew %v, failed %d, pass %v\n",
			ladder[mid], p99, p99s, ps.lagGrew, ps.failed, pass)
		if pass {
			lo = mid
		} else {
			hi = mid
		}
		time.Sleep(ladderSettle)
	}
	if lo < 0 {
		return 0
	}
	return ladder[lo]
}

// sampleWeights are the seeded queries checked against the model.
func (b *bench) sampleWeights() [][]float64 {
	rng := rand.New(rand.NewSource(subSeed(b.seed, 5)))
	ws := make([][]float64, sampleQueries)
	for i := range ws {
		ws[i] = freshWeights(rng, b.sp.dim)
	}
	return ws
}

// sampleCheck compares the seeded sample of queries against brute force
// over the model of acknowledged records.
func (b *bench) sampleCheck(p *serverProc, when string) error {
	ids, vecs := b.model.arrays()
	for _, w := range b.sampleWeights() {
		want := bruteTopN(ids, vecs, w, b.sp.topN)
		if err := b.query(p, w, want); err != nil {
			if errors.Is(err, errWrong) {
				b.fail(true, "sample query %s: %v", when, err)
				continue
			}
			return err
		}
	}
	return nil
}

var errWrong = errors.New("wrong answer")

// query sends one /v1/topn and compares it with want.
func (b *bench) query(p *serverProc, w []float64, want []ranked) error {
	b.attempted++
	lg := loadgen{hc: b.hc, base: "http://" + p.addr}
	body, err := lg.post("/v1/topn", mustJSON(topnReq{Weights: w, N: b.sp.topN}), -1)
	if err != nil {
		b.fail(false, "check query failed: %v", err)
		return nil
	}
	var r topnResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	if err := sameRanking(r.Results, want); err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	return nil
}

// crashRestarts crashes the freshly set-up server. restart_s is the
// median of `restarts` SIGKILL-and-restart cycles on an empty log:
// checkpoint load to the first verified answer. Then crashWrites
// acknowledged writes, one more SIGKILL and a restart that must replay
// them (wal.recovery_s), and the complete ranking is checked against
// the model, so a lost acknowledged write fails the run.
func (b *bench) crashRestarts(p *serverProc) (*serverProc, error) {
	var times []float64
	for i := 0; i < restarts; i++ {
		var err error
		var d time.Duration
		if p, d, err = b.crash(p, i); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		time.Sleep(restartGap)
	}
	b.rep.set("restart_s", median(times), "s")
	fmt.Fprintf(os.Stderr, "perfbench: restarts on an empty log took %.4f s\n", times)

	lg := &loadgen{hc: newHTTPClient(), base: "http://" + p.addr}
	b.phase(lg, time.Duration(crashWrites*float64(time.Second)/tailRate), 0, tailRate)
	lg.hc.CloseIdleConnections()
	p, d, err := b.crash(p, restarts)
	if err != nil {
		return nil, err
	}
	b.rep.set("wal.recovery_s", d.Seconds(), "s")
	b.stage("crash restarts")
	if err := b.fullCheck(p); err != nil {
		return nil, err
	}
	return b.cleanRestart(p)
}

// cleanRestart stops p with SIGTERM, which checkpoints its state and
// empties the log, restarts it with the same flags and checks the
// complete ranking again. One more crash restart, now on an empty log,
// gives the server of the measured phase: it has loaded a checkpoint
// and answered one query. The garbage of a replay or of a complete
// ranking would otherwise set its peak RSS, which then varies with GC
// timing from run to run by more than the serving itself adds.
func (b *bench) cleanRestart(p *serverProc) (*serverProc, error) {
	if err := p.stop(readyTimeout); err != nil {
		return nil, err
	}
	p, err := b.restart(p.args)
	if err != nil {
		return nil, err
	}
	if err := b.fullCheck(p); err != nil {
		return nil, err
	}
	p, _, err = b.crash(p, restarts+1)
	b.stage("clean restart")
	return p, err
}

// crash kills p with SIGKILL, restarts it with the same flags and
// returns the time from the kill to the first verified answer.
func (b *bench) crash(p *serverProc, i int) (*serverProc, time.Duration, error) {
	ids, vecs := b.model.arrays()
	w := b.sampleWeights()[i%sampleQueries]
	want := bruteTopN(ids, vecs, w, b.sp.topN)
	start := time.Now()
	p.kill()
	p, err := b.restart(p.args)
	if err != nil {
		return nil, 0, err
	}
	if err := b.query(p, w, want); err != nil {
		if !errors.Is(err, errWrong) {
			p.kill()
			return nil, 0, err
		}
		b.fail(true, "first answer after crash restart %d: %v", i, err)
	}
	return p, time.Since(start), nil
}

// restart starts onionserve with args and waits until it is ready.
func (b *bench) restart(args []string) (*serverProc, error) {
	logPath := filepath.Join(b.work, "restart.log")
	p, err := startServer(b.serveBin, args, logPath)
	if err != nil {
		return nil, err
	}
	if err := waitReady(b.hc, p, readyTimeout); err != nil {
		p.kill()
		return nil, fmt.Errorf("restart: %w (log: %s)", err, tailFile(logPath))
	}
	return p, nil
}

// fullCheck compares the server's complete ranking under one sample
// vector (and its negation, when the server caps a stream) with the
// model, and its record count with the model's.
func (b *bench) fullCheck(p *serverProc) error {
	var h struct {
		Records int `json:"records"`
	}
	resp, err := b.hc.Get("http://" + p.addr + "/v1/healthz")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		return err
	}
	b.attempted++
	if h.Records != len(b.model.live) {
		b.fail(true, "after restart the server holds %d records, the acknowledged writes leave %d", h.Records, len(b.model.live))
	}
	ids, vecs := b.model.arrays()
	w := b.sampleWeights()[0]
	covered := 0
	for _, sign := range []float64{1, -1} {
		ws := make([]float64, len(w))
		for j := range w {
			ws[j] = sign * w[j]
		}
		got, truncated, err := b.search(p, ws)
		if err != nil {
			return err
		}
		b.attempted++
		want := bruteAll(ids, vecs, ws)
		if err := sameRanking(got, want[:min(len(got), len(want))]); err != nil || (!truncated && len(got) != len(want)) {
			b.fail(true, "complete ranking after restart differs from the acknowledged writes: %v (%d of %d ranks)", err, len(got), len(want))
			return nil
		}
		covered += len(got)
		if !truncated || covered >= len(want) {
			break
		}
	}
	return nil
}

// search reads the complete /v1/search stream for w.
func (b *bench) search(p *serverProc, w []float64) ([]resultJSON, bool, error) {
	body := mustJSON(struct {
		Weights []float64 `json:"weights"`
		Limit   int       `json:"limit"`
	}{w, 0})
	resp, err := b.hc.Post("http://"+p.addr+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("/v1/search: status %d", resp.StatusCode)
	}
	var out []resultJSON
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			resultJSON
			Done      bool `json:"done"`
			Truncated bool `json:"truncated"`
		}
		if err := dec.Decode(&line); err != nil {
			return nil, false, fmt.Errorf("/v1/search stream: %w", err)
		}
		if line.Done {
			return out, line.Truncated, nil
		}
		out = append(out, line.resultJSON)
	}
}
