package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// A traced run serves the same workload and seed in process: the
// program's own server.Handler behind loopback, wrapped in a handler
// that records a server.handle span per request, while the client
// records a request span. It then replays each request's inputs through
// the layers' public functions, one span per call, parented to the
// request's server.handle span. Spans stay in memory and are written
// out as JSON lines when the run ends.

// span is one timed interval. Parent and Req are 0 when absent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // endpoint of a request or handle span
	N      int    `json:"n,omitempty"`    // queries in a batch span, bytes of an encode span
	Start  int64  `json:"start_ns"`       // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, kind string, req, parent int64, start, end time.Time) int64 {
	return t.addN(name, kind, req, parent, 0, start, end)
}

func (t *tracer) addN(name, kind string, req, parent int64, n int, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind, N: n,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, req, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.add(name, "", req, parent, start, time.Now())
}

func (t *tracer) find(name, kind string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) durations(name, kind string) []float64 {
	var out []float64
	for _, s := range t.find(name, kind) {
		out = append(out, s.us())
	}
	return out
}

// selfTimes returns each matching span's duration minus the durations
// of its children. Replayed children ran after their parent, outside
// its interval, so self time subtracts their durations rather than the
// part of the interval they cover.
func (t *tracer) selfTimes(name, kind string) []float64 {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.find(name, kind) {
		out = append(out, max(0, float64(s.End-s.Start-child[s.ID])/1e3))
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func endpointKind(path string) string {
	for k, p := range kindPaths {
		if p == path {
			return kindNames[k]
		}
	}
	return ""
}

// spanHandler records a server.handle span around every request.
func spanHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // absent on control requests
		t.add("server.handle", endpointKind(r.URL.Path), req, 0, start, time.Now())
	})
}

// perLayerMetrics go into the result of a traced run.
var perLayerMetrics = []string{
	"client.lag_p50_ms", "client.lag_p99_ms", "client.inflight_max", "error_share",
	"topn_p99_ms", "batch_p99_ms", "ack_p50_ms", "ack_p99_ms", "slo_qps", "restart_s",
	"net.overhead_us_p50",
	"server.topn.handle_us_p50", "server.topn.handle_us_p99", "server.topn.self_us_p50",
	"server.batch.handle_us_p50", "server.batch.handle_us_p99", "server.batch.self_us_p50",
	"server.insert.handle_us_p50", "server.insert.handle_us_p99", "server.insert.self_us_p50",
	"server.delete.handle_us_p50", "server.delete.handle_us_p99", "server.delete.self_us_p50",
	"server.rejected", "server.timeouts",
	"codec.decode_us_p50", "codec.encode_us_p50", "codec.response_bytes",
	"cache.hit_rate", "cache.get_us_p50", "cache.evictions", "cache.invalidations",
	"core.topn_us_p50", "core.topn_us_p99", "core.batch_us_per_query",
	"core.records_evaluated_per_query", "core.layers_accessed_per_query", "core.layers_pruned_per_query",
	"core.shells_records_skipped_per_query", "core.results_per_record_evaluated",
	"core.publish_us_p50", "core.publish_us_p99", "core.delta_pending_p50", "core.delta_pending_max",
	"core.compactions", "core.compact_s", "core.build_s",
	"wal.commit_us_p50", "wal.commit_us_p99", "wal.fsyncs_per_write", "wal.bytes_per_user_byte",
	"wal.open_s", "wal.recovery_s",
	"storage.marshal_v2_s", "storage.checkpoint_bytes_per_user_byte", "storage.open_mapped_ms",
	"proc.cpu_us_per_request",
	"trace.topn_p50_ms", "trace.topn_p99_ms", "trace.overhead_p50_pct",
}

// serverConfig mirrors onionserve's flag defaults plus the benchmark's
// deployment settings, so the in-process server matches the process.
func serverConfig(mgr *wal.Manager) server.Config {
	return server.Config{
		MaxInFlight:  64,
		MaxBatchOps:  32,
		QueryTimeout: 30 * time.Second,
		MaxResults:   100_000,
		CacheBytes:   cacheBytes,
		WAL:          mgr,
	}
}

func (b *bench) records() []core.Record {
	recs := make([]core.Record, len(b.c.ids))
	for i, id := range b.c.ids {
		recs[i] = core.Record{ID: id, Vector: b.c.vecs[i]}
	}
	return recs
}

func (b *bench) runTraced() error {
	if err := b.runUntraced(true); err != nil {
		return err
	}
	b.rep.selected = perLayerMetrics
	untracedP50 := b.rep.metrics["topn_p50_ms"].Value
	b.stage("untraced pass")

	// The traced pass replays the untraced pass's schedule from the same
	// seed: crash writes, warm-up, measured phase, write tail.
	b.model = newModel(b.c)
	b.tr = newTraffic(b.sp, b.seed, b.c)
	spans := newTracer()
	var ix *core.Index
	var err error
	spans.timed("core.build", 0, 0, func() { ix, err = core.Build(b.records(), core.Options{}) })
	if err != nil {
		return err
	}
	mgr, _, err := wal.Open(filepath.Join(b.work, "traced-data"), wal.Config{})
	if err != nil {
		return err
	}
	if err := mgr.Bootstrap(ix); err != nil {
		return err
	}
	srv := server.New(ix, serverConfig(mgr))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: spanHandler(srv.Handler(), spans)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	lg := &loadgen{hc: newHTTPClient(), base: "http://" + ln.Addr().String(), spans: spans}

	b.phase(lg, time.Duration(crashWrites*float64(time.Second)/tailRate), 0, tailRate)
	b.phase(lg, warmup, b.sp.readRate, b.sp.writeRate)
	base := srv.Snapshot()
	ops, out, ps := b.phase(lg, b.measured(), b.sp.readRate, b.sp.writeRate)
	var writes []op
	var writeOut []outcome
	if b.sp.writeRate == 0 {
		writes, writeOut, _ = b.phase(lg, tailSeconds*time.Second, 0, tailRate)
	} else {
		writes, writeOut = ops, out
	}
	lg.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	<-served
	if err := srv.Close(ctx); err != nil {
		return err
	}
	if err := mgr.Close(); err != nil {
		return err
	}
	b.stage("traced pass")

	p50 := median(ps.lat[kTopN])
	b.rep.set("trace.topn_p50_ms", p50, "ms")
	b.rep.set("trace.topn_p99_ms", quantile(ps.lat[kTopN], 0.99), "ms")
	b.rep.set("trace.overhead_p50_pct", 100*(p50-untracedP50)/untracedP50, "%")
	b.rep.set("client.inflight_max", float64(lg.inflightMax.Load()), "count")

	r := replayer{b: b, t: spans, handle: map[int64]int64{}}
	for _, s := range spans.find("server.handle", "") {
		r.handle[s.Req] = s.ID
	}
	if err := r.reads(base, ops, out); err != nil {
		return err
	}
	if err := r.writes(ix, writes, writeOut); err != nil {
		return err
	}
	if err := r.storage(ix); err != nil {
		return err
	}
	b.stage("replay")
	b.traceMetrics(spans)
	path := filepath.Join(b.traceDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.sp.name, b.seed))
	if err := spans.write(path); err != nil {
		return err
	}
	b.rep.head("spans", fmt.Sprintf("%d written to %s", len(spans.spans), path))
	return nil
}

// replayer feeds recorded request inputs through the layers' public
// functions.
type replayer struct {
	b      *bench
	t      *tracer
	handle map[int64]int64 // request id -> its server.handle span
}

func statsJSON(st core.Stats) server.StatsJSON {
	return server.StatsJSON{
		RecordsEvaluated:       st.RecordsEvaluated,
		LayersAccessed:         st.LayersAccessed,
		LayersPruned:           st.LayersPruned,
		RecordsSkippedByShells: st.RecordsSkippedByShells,
		ShellLayers:            st.ShellLayers,
	}
}

func responseJSON(res []core.Result, st core.Stats) server.TopNResponse {
	rs := make([]server.ResultJSON, len(res))
	for i, x := range res {
		rs[i] = server.ResultJSON{ID: x.ID, Score: x.Score, Layer: x.Layer}
	}
	return server.TopNResponse{Results: rs, Stats: statsJSON(st)}
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// search runs the kernel the way the /v1/topn handler does: a checked
// Searcher drained with Next.
func search(ix *core.Index, w []float64, n int) ([]core.Result, core.Stats, error) {
	sr, err := ix.NewSearcherChecked(w, n)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res := make([]core.Result, 0, n)
	for {
		x, ok := sr.Next()
		if !ok {
			break
		}
		res = append(res, x)
	}
	return res, sr.Stats(), sr.Err()
}

// reads replays the measured phase's reads against the snapshot they
// were served from, through a fresh result cache of the same budget.
func (r *replayer) reads(ix *core.Index, ops []op, out []outcome) error {
	c := cache.New(cacheBytes, 0)
	n := r.b.sp.topN
	for i := range ops {
		o, req := &ops[i], out[i].id
		if out[i].failed() {
			continue
		}
		parent := r.handle[req]
		switch o.kind {
		case kTopN:
			var in server.TopNRequest
			var err error
			r.t.timed("codec.decode", req, parent, func() { err = decodeStrict(o.body, &in) })
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			var res []core.Result
			var st core.Stats
			start := time.Now()
			var kernel []span
			res, st, _, err = c.GetOrCompute(core.WeightKey(in.Weights), n, c.Epoch(), func() ([]core.Result, core.Stats, error) {
				ks := time.Now()
				res, st, err := search(ix, in.Weights, n)
				kernel = append(kernel, span{Start: int64(ks.Sub(r.t.t0)), End: int64(time.Since(r.t.t0))})
				return res, st, err
			})
			if err != nil {
				return fmt.Errorf("replay topn: %w", err)
			}
			get := r.t.add("cache.get", "", req, parent, start, time.Now())
			for _, k := range kernel {
				r.t.add("core.topn", "", req, get, r.t.t0.Add(time.Duration(k.Start)), r.t.t0.Add(time.Duration(k.End)))
			}
			var body []byte
			start = time.Now()
			body, err = json.Marshal(responseJSON(res, st))
			r.t.addN("codec.encode", "topn", req, parent, len(body), start, time.Now())
			if err != nil {
				return err
			}
		case kBatch:
			var in server.TopNBatchRequest
			var err error
			r.t.timed("codec.decode", req, parent, func() { err = decodeStrict(o.body, &in) })
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			results := make([][]core.Result, len(in.Weights))
			stats := make([]core.Stats, len(in.Weights))
			var missW [][]float64
			var missQ []int
			for q, w := range in.Weights {
				var ok bool
				r.t.timed("cache.get", req, parent, func() {
					results[q], stats[q], ok = c.Get(core.WeightKey(w), n, c.Epoch())
				})
				if !ok {
					missW = append(missW, w)
					missQ = append(missQ, q)
				}
			}
			if len(missW) > 0 {
				var res [][]core.Result
				var st []core.Stats
				start := time.Now()
				res, st, err = ix.TopNBatch(missW, n)
				r.t.addN("core.batch", "", req, parent, len(missW), start, time.Now())
				if err != nil {
					return fmt.Errorf("replay batch: %w", err)
				}
				for m, q := range missQ {
					results[q], stats[q] = res[m], st[m]
					c.Put(core.WeightKey(missW[m]), c.Epoch(), n, res[m], st[m])
				}
			}
			resp := server.TopNBatchResponse{Queries: make([]server.TopNResponse, len(results))}
			for q := range results {
				resp.Queries[q] = responseJSON(results[q], stats[q])
			}
			start := time.Now()
			body, err := json.Marshal(resp)
			r.t.addN("codec.encode", "batch", req, parent, len(body), start, time.Now())
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writes replays the acknowledged writes as the mutator applies them:
// an O(delta) publish on a delta clone, then the WAL group commit.
// The compaction span folds the first crashWrites of them.
func (r *replayer) writes(ix *core.Index, ops []op, out []outcome) error {
	mgr, _, err := wal.Open(filepath.Join(r.b.work, "replay-wal"), wal.Config{})
	if err != nil {
		return err
	}
	defer mgr.Close()
	if err := mgr.Bootstrap(ix); err != nil {
		return err
	}
	cur := ix
	applied := 0
	for i := range ops {
		o, req := &ops[i], out[i].id
		if (o.kind != kInsert && o.kind != kDelete) || out[i].failed() {
			continue
		}
		parent := r.handle[req]
		var next *core.Index
		var mut wal.Mutation
		var err error
		r.t.timed("core.publish", req, parent, func() {
			next = cur.CloneDelta()
			if o.kind == kInsert {
				mut.Insert = []core.Record{{ID: o.id, Vector: o.vec}}
				err = next.InsertDelta(mut.Insert)
			} else {
				mut.Delete = []uint64{o.id}
				_, err = next.DeleteDelta(mut.Delete, false)
			}
		})
		if err != nil {
			return fmt.Errorf("replay publish: %w", err)
		}
		r.t.timed("wal.commit", req, parent, func() { err = mgr.CommitBatch([]wal.Mutation{mut}, next) })
		if err != nil {
			return fmt.Errorf("replay commit: %w", err)
		}
		cur = next
		if applied++; applied == crashWrites {
			r.t.timed("core.compact", 0, 0, func() { _, err = cur.CompactedClone() })
			if err != nil {
				return fmt.Errorf("replay compaction: %w", err)
			}
		}
	}
	return nil
}

// storage replays a checkpoint of the built index: MarshalV2, a wal.Open
// that loads it, and OpenMappedV2 of the same bytes.
func (r *replayer) storage(ix *core.Index) error {
	var buf []byte
	var err error
	r.t.timed("storage.marshal_v2", 0, 0, func() { buf, err = storage.MarshalV2(ix, nil) })
	if err != nil {
		return err
	}
	dir := filepath.Join(r.b.work, "replay-open")
	mgr, _, err := wal.Open(dir, wal.Config{})
	if err != nil {
		return err
	}
	err = mgr.Bootstrap(ix)
	if cerr := mgr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.t.timed("wal.open", 0, 0, func() {
		var m *wal.Manager
		if m, _, err = wal.Open(dir, wal.Config{}); err == nil {
			err = m.Close()
		}
	})
	if err != nil {
		return err
	}
	path := filepath.Join(r.b.work, "replay.onion")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	r.t.timed("storage.open_mapped", 0, 0, func() {
		var m *storage.MappedV2
		if m, err = storage.OpenMappedV2(path, 0); err == nil {
			_, err = m.Index(core.Options{})
			if cerr := m.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// traceMetrics turns the spans into per-layer times.
func (b *bench) traceMetrics(t *tracer) {
	p := func(name, kind string, q float64) float64 { return quantile(t.durations(name, kind), q) }
	var net []float64
	handle := map[int64]span{}
	for _, s := range t.find("server.handle", "topn") {
		handle[s.Req] = s
	}
	for _, s := range t.find("request", "topn") {
		if h, ok := handle[s.Req]; ok {
			net = append(net, s.us()-h.us())
		}
	}
	b.rep.set("net.overhead_us_p50", median(net), "us")
	for _, k := range []string{"topn", "batch", "insert", "delete"} {
		b.rep.set("server."+k+".handle_us_p50", p("server.handle", k, 0.5), "us")
		b.rep.set("server."+k+".handle_us_p99", p("server.handle", k, 0.99), "us")
		b.rep.set("server."+k+".self_us_p50", median(t.selfTimes("server.handle", k)), "us")
	}
	b.rep.set("codec.decode_us_p50", p("codec.decode", "", 0.5), "us")
	b.rep.set("codec.encode_us_p50", p("codec.encode", "", 0.5), "us")
	var sizes []float64
	for _, s := range t.find("codec.encode", "topn") {
		sizes = append(sizes, float64(s.N))
	}
	b.rep.set("codec.response_bytes", median(sizes), "bytes")
	b.rep.set("cache.get_us_p50", median(t.selfTimes("cache.get", "")), "us")
	b.rep.set("core.topn_us_p50", p("core.topn", "", 0.5), "us")
	b.rep.set("core.topn_us_p99", p("core.topn", "", 0.99), "us")
	var batchUs, batchQ float64
	for _, s := range t.find("core.batch", "") {
		batchUs += s.us()
		batchQ += float64(s.N)
	}
	b.rep.set("core.batch_us_per_query", ratio(batchUs, batchQ), "us")
	b.rep.set("core.publish_us_p50", p("core.publish", "", 0.5), "us")
	b.rep.set("core.publish_us_p99", p("core.publish", "", 0.99), "us")
	b.rep.set("wal.commit_us_p50", p("wal.commit", "", 0.5), "us")
	b.rep.set("wal.commit_us_p99", p("wal.commit", "", 0.99), "us")
	b.rep.set("core.compact_s", p("core.compact", "", 0.5)/1e6, "s")
	b.rep.set("core.build_s", p("core.build", "", 0.5)/1e6, "s")
	b.rep.set("wal.open_s", p("wal.open", "", 0.5)/1e6, "s")
	b.rep.set("storage.marshal_v2_s", p("storage.marshal_v2", "", 0.5)/1e6, "s")
	b.rep.set("storage.open_mapped_ms", p("storage.open_mapped", "", 0.5)/1e3, "ms")
}
