package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/workload"
)

// spec is one workload: a seeded Gaussian corpus and an open-loop
// traffic mix sent on a fixed schedule.
type spec struct {
	name      string
	n, dim    int
	readRate  float64 // read requests per second (topn plus batch)
	topN      int
	pool      int     // weight-vector pool size; 0 draws fresh weights per query
	zipfS     float64 // > 1: zipf(s) draw over the pool; 0: uniform draw
	writeRate float64 // writes per second beside the reads of the measured phase
}

// Every workload sends one read request in batchEvery as a
// /v1/topn/batch of batchSize queries, and ends with a write tail (when
// its measured phase has no writes of its own) before the crash
// restarts, so every end-to-end metric is measured on every workload.
const (
	batchEvery  = 16
	batchSize   = 8
	tailRate    = 150 // writes per second in the write tail
	tailSeconds = 2
	cacheBytes  = 1 << 20
)

var specs = []spec{
	{name: "topn-deep", n: 50_000, dim: 4, readRate: 800, topN: 100, pool: 8192},
	{name: "topn-hot", n: 100_000, dim: 3, readRate: 3000, topN: 10, pool: 1024, zipfS: 1.1},
	{name: "mixed-rw", n: 50_000, dim: 3, readRate: 1000, topN: 10, writeRate: 150},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// subSeed derives an independent stream seed from the run seed
// (splitmix64), so corpus, pool and schedule never share a stream.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// corpus is the generated record set: ids 1..n, row-major vectors.
type corpus struct {
	dim  int
	ids  []uint64
	vecs [][]float64
}

func makeCorpus(sp spec, seed int64) corpus {
	pts := workload.Points(workload.Gaussian, sp.n, sp.dim, subSeed(seed, 1))
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return corpus{dim: sp.dim, ids: ids, vecs: pts}
}

type opKind uint8

const (
	kTopN opKind = iota
	kBatch
	kInsert
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"topn", "batch", "insert", "delete"}
var kindPaths = [numKinds]string{"/v1/topn", "/v1/topn/batch", "/v1/insert", "/v1/delete"}

// op is one scheduled request with its pre-encoded body.
type op struct {
	due  time.Duration // offset from the phase start
	kind opKind
	body []byte
	pool []int32 // pool rows a read queries; nil when its weights are fresh
	id   uint64  // record inserted or deleted
	vec  []float64
}

// Wire types of the client. They are the benchmark's own, so a change
// of the server's JSON surface shows up as failed requests.
type topnReq struct {
	Weights []float64 `json:"weights"`
	N       int       `json:"n"`
}

type batchReq struct {
	Weights [][]float64 `json:"weights"`
	N       int         `json:"n"`
}

type recJSON struct {
	ID     uint64    `json:"id"`
	Vector []float64 `json:"vector"`
}

type insertReq struct {
	Records []recJSON `json:"records"`
}

type deleteReq struct {
	IDs []uint64 `json:"ids"`
}

// traffic draws the requests of successive phases from one seeded
// stream, so a seed fixes every input of the run.
type traffic struct {
	sp       spec
	rng      *rand.Rand
	zipf     *rand.Zipf
	pool     [][]float64
	reads    int
	writes   int
	nextID   uint64   // id of the next inserted record
	delOrder []uint64 // base ids in seeded order; each is deleted at most once
}

func newTraffic(sp spec, seed int64, c corpus) *traffic {
	t := &traffic{sp: sp, rng: rand.New(rand.NewSource(subSeed(seed, 3))), nextID: uint64(sp.n) + 1}
	if sp.pool > 0 {
		t.pool = workload.QueryWeights(sp.pool, sp.dim, subSeed(seed, 2))
		if sp.zipfS > 1 {
			t.zipf = rand.NewZipf(t.rng, sp.zipfS, 1, uint64(sp.pool-1))
		}
	}
	// Deletes take base records only: an id inserted by this run could
	// still be in flight on the other connection when its delete is sent.
	order := rand.New(rand.NewSource(subSeed(seed, 4))).Perm(len(c.ids))
	t.delOrder = make([]uint64, len(order))
	for i, p := range order {
		t.delOrder[i] = c.ids[p]
	}
	return t
}

// freshWeights draws a uniform [0,1)^d vector, rejecting all-zero.
func freshWeights(rng *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	for {
		var sum float64
		for j := range w {
			w[j] = rng.Float64()
			sum += w[j]
		}
		if sum > 0 {
			return w
		}
	}
}

func (t *traffic) drawPool() int32 {
	if t.zipf != nil {
		return int32(t.zipf.Uint64())
	}
	return int32(t.rng.Intn(len(t.pool)))
}

func (t *traffic) weights() ([]float64, int32) {
	if t.pool == nil {
		return freshWeights(t.rng, t.sp.dim), -1
	}
	i := t.drawPool()
	return t.pool[i], i
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own wire types always encode
	}
	return b
}

func (t *traffic) read(due time.Duration) op {
	t.reads++
	if t.reads%batchEvery == 0 {
		o := op{due: due, kind: kBatch}
		ws := make([][]float64, batchSize)
		for q := range ws {
			w, i := t.weights()
			ws[q] = w
			if i >= 0 {
				o.pool = append(o.pool, i)
			}
		}
		o.body = mustJSON(batchReq{Weights: ws, N: t.sp.topN})
		return o
	}
	w, i := t.weights()
	o := op{due: due, kind: kTopN, body: mustJSON(topnReq{Weights: w, N: t.sp.topN})}
	if i >= 0 {
		o.pool = []int32{i}
	}
	return o
}

// write alternates inserts of new seeded Gaussian points and deletes of
// live base records in a 2:1 ratio.
func (t *traffic) write(due time.Duration) op {
	t.writes++
	if t.writes%3 == 0 && len(t.delOrder) > 0 {
		id := t.delOrder[0]
		t.delOrder = t.delOrder[1:]
		return op{due: due, kind: kDelete, id: id, body: mustJSON(deleteReq{IDs: []uint64{id}})}
	}
	v := make([]float64, t.sp.dim)
	for j := range v {
		v[j] = t.rng.NormFloat64()
	}
	id := t.nextID
	t.nextID++
	return op{due: due, kind: kInsert, id: id, vec: v,
		body: mustJSON(insertReq{Records: []recJSON{{ID: id, Vector: v}}})}
}

// phase schedules d of traffic: reads every 1/readRate and writes every
// 1/writeRate (offset by half a period), merged in due order.
func (t *traffic) phase(d time.Duration, readRate, writeRate float64) []op {
	var ops []op
	nr := int(d.Seconds() * readRate)
	nw := int(d.Seconds() * writeRate)
	r, w := 0, 0
	at := func(i int, off, rate float64) time.Duration {
		return time.Duration((float64(i) + off) / rate * float64(time.Second))
	}
	for r < nr || w < nw {
		if w >= nw || (r < nr && at(r, 0, readRate) <= at(w, 0.5, writeRate)) {
			ops = append(ops, t.read(at(r, 0, readRate)))
			r++
		} else {
			ops = append(ops, t.write(at(w, 0.5, writeRate)))
			w++
		}
	}
	return ops
}
