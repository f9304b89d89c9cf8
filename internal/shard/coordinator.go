package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard/client"
)

// Config tunes a Coordinator. The zero value is ready to use.
type Config struct {
	// Client configures every replica endpoint (bounded connection
	// pool, per-attempt timeout, idempotent-read retries). See package
	// client.
	Client client.Config
	// ShardTimeout bounds one shard group's whole query — primary,
	// hedge, and failover attempts together. A group that produces no
	// answer inside the bound yields a typed partial-result error
	// instead of holding the merge hostage. 0 means 5s.
	ShardTimeout time.Duration
	// HedgeDelay is how long the primary replica gets before a backup
	// request is fired at the next replica of the group (first success
	// wins, the loser's context is cancelled). 0 means 20ms; negative
	// disables hedging (failover on error still applies). Tail-latency
	// tuning: set it near the shard's p95 so ~5% of queries hedge.
	HedgeDelay time.Duration
	// ProbeInterval is how often every replica's /v1/healthz/ready is
	// polled in the background; replicas that answer not-ready (a node
	// still replaying its WAL, a draining node) are moved to the back
	// of the fan-out order until they recover. 0 means 2s; negative
	// disables active probing (passive marking on request failures
	// still applies).
	ProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 5 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 20 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// pendingWrite is one mutation a diverged replica still owes. Exactly
// one of insert/del is set.
type pendingWrite struct {
	insert       []core.Record
	del          []uint64
	delMissingOK bool
}

// replica is one onionserve node inside a shard group.
type replica struct {
	ep    *client.Endpoint
	ready atomic.Bool

	// Divergence state. A replica that failed a write the group acked
	// holds stale data: it is pulled out of the read rotation entirely
	// (not merely deprioritized like a not-ready replica — a stale
	// answer merged into the ranking would be silently wrong, which is
	// worse than slow) and the missed writes queue up here until a
	// resync drains them in order.
	mu       sync.Mutex
	diverged bool
	draining bool
	pending  []pendingWrite
}

func (r *replica) isDiverged() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.diverged
}

// divergeOn marks the replica diverged and queues the write it missed.
// Reports whether this call is what flipped it (for the metric; a
// replica already diverged just grows its queue). Re-asserting diverged
// under the same lock as the append closes the race with a concurrent
// resync: if a drain just emptied the queue and cleared the flag, the
// new debt re-opens it and the replica stays out of rotation.
func (r *replica) divergeOn(pw pendingWrite) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := r.diverged
	r.diverged = true
	r.pending = append(r.pending, pw)
	return !was
}

// group is one shard: a set of replicas all serving the same slice of
// the corpus.
type group struct {
	replicas []*replica
	next     atomic.Uint64 // round-robin cursor for primary selection
}

// order returns the replicas in fan-out order: ready replicas first,
// rotated by the round-robin cursor so load spreads across them, then
// not-ready replicas as a last resort (they may have recovered since
// the last probe; trying them is still better than failing the shard).
// Diverged replicas are excluded outright — never even as a last
// resort: they hold data older than an acked mutation, and a merge
// over stale data is a wrong answer, not a degraded one.
func (g *group) order() []*replica {
	n := len(g.replicas)
	start := int(g.next.Add(1)-1) % n
	ready := make([]*replica, 0, n)
	var rest []*replica
	for i := 0; i < n; i++ {
		r := g.replicas[(start+i)%n]
		if r.isDiverged() {
			continue
		}
		if r.ready.Load() {
			ready = append(ready, r)
		} else {
			rest = append(rest, r)
		}
	}
	return append(ready, rest...)
}

// Coordinator fans linear optimization queries out to shard groups and
// merges their rankings into the exact single-node answer (see the
// package comment for the argument). Writes are routed to the owning
// shard. Safe for concurrent use; Close stops the probe loop.
type Coordinator struct {
	part    Partitioner
	groups  []*group
	cfg     Config
	metrics *metrics

	stopOnce sync.Once
	stop     chan struct{}
	probed   sync.WaitGroup
}

// New builds a coordinator over one endpoint list per shard:
// endpoints[g] are the replica base URLs of shard g. The partitioner's
// shard count must match len(endpoints) — queries would still be
// correct under a mismatch (queries visit every group), but writes
// would route into the void.
func New(part Partitioner, endpoints [][]string, cfg Config) (*Coordinator, error) {
	if part.NumShards() != len(endpoints) {
		return nil, fmt.Errorf("shard: partitioner has %d shards, %d endpoint groups given", part.NumShards(), len(endpoints))
	}
	cfg = cfg.withDefaults()
	groups := make([]*group, len(endpoints))
	for gi, reps := range endpoints {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: group %d has no replicas", gi)
		}
		g := &group{replicas: make([]*replica, len(reps))}
		for ri, base := range reps {
			r := &replica{ep: client.New(base, cfg.Client)}
			r.ready.Store(true) // optimistic until a probe or failure says otherwise
			g.replicas[ri] = r
		}
		groups[gi] = g
	}
	c := &Coordinator{
		part:    part,
		groups:  groups,
		cfg:     cfg,
		metrics: newMetrics(len(groups)),
		stop:    make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		c.probed.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background readiness prober. In-flight fan-outs are
// unaffected (they carry their own contexts).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probed.Wait()
}

// probeLoop polls every replica's readiness endpoint, concurrently per
// tick so one black-holed replica's timeout doesn't delay the rest.
func (c *Coordinator) probeLoop() {
	defer c.probed.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, g := range c.groups {
			for _, r := range g.replicas {
				wg.Add(1)
				go func(r *replica) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
					defer cancel()
					ok := r.ep.Ready(ctx)
					r.ready.Store(ok)
					c.metrics.probesPerformed.Add(1)
					if !ok {
						c.metrics.replicasNotReady.Add(1)
						return
					}
					// A live probe on a diverged replica doubles as the
					// resync trigger: replay its missed writes in order and
					// put it back into rotation once the queue drains.
					if r.isDiverged() {
						c.drainReplica(ctx, r)
					}
				}(r)
			}
		}
		wg.Wait()
	}
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.groups) }

// GroupReady reports whether shard group g currently has at least one
// replica believed ready. A diverged replica does not count: it is out
// of the read rotation until it resyncs.
func (c *Coordinator) GroupReady(g int) bool {
	for _, r := range c.groups[g].replicas {
		if r.ready.Load() && !r.isDiverged() {
			return true
		}
	}
	return false
}

// Ready reports whether every shard group has a ready replica — the
// coordinator's own readiness condition: with any group dark, exact
// answers are impossible.
func (c *Coordinator) Ready() bool {
	for g := range c.groups {
		if !c.GroupReady(g) {
			return false
		}
	}
	return true
}

// PartialError reports the shard groups that produced no answer for a
// fan-out. The merged result over the responding shards is still
// returned alongside it — exact over the shards that answered, and a
// superset-free subset of the true answer — so a caller that opted
// into partial results can use it, and one that didn't can surface a
// typed failure naming the shards.
type PartialError struct {
	// Failed holds one entry per dark shard group.
	Failed []ShardError
}

// ShardError is one shard group's terminal failure.
type ShardError struct {
	Shard int
	Err   error
}

func (e *PartialError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		parts[i] = fmt.Sprintf("shard %d: %v", f.Shard, f.Err)
	}
	return fmt.Sprintf("shard: partial result, %d shard group(s) failed (%s)",
		len(e.Failed), strings.Join(parts, "; "))
}

// Shards returns the failed shard indexes, ascending.
func (e *PartialError) Shards() []int {
	out := make([]int, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f.Shard
	}
	sort.Ints(out)
	return out
}

// TopNResult is one merged fan-out.
type TopNResult struct {
	// Results is the merged ranking — with no failed shards, bit-
	// identical (IDs, score bits, order) to a single-node index over
	// the union corpus. Layer is the shard-local layer (see merge.go).
	Results []core.Result
	// Stats sums the work counters of every responding shard.
	Stats core.Stats
	// Failed lists shard groups that contributed nothing (also carried
	// by the accompanying *PartialError when non-empty).
	Failed []int
}

// TopN fans one query out to every shard group (hedged within each
// group) and merges. When some — but not all — groups fail, it returns
// the merge over the survivors together with a *PartialError; when
// every group fails, it returns a nil result and an error describing
// the first failure.
func (c *Coordinator) TopN(ctx context.Context, weights []float64, n int) (*TopNResult, error) {
	return c.TopNFiltered(ctx, weights, n, nil)
}

// TopNFiltered is TopN with range predicates pushed down to every
// shard. Exactness needs no new protocol: each shard answers with its
// own top-n QUALIFYING records (the single-node Section 4 expansion
// over its slice of the corpus), every globally qualifying record
// lives on exactly one shard, and the global filtered top-n is
// therefore contained in the union of the per-shard filtered top-n
// sets — so the same total-order merge used for unfiltered queries is
// exact here too. Each shard bounds its own expansion depth; the
// coordinator never asks for more than n per shard.
func (c *Coordinator) TopNFiltered(ctx context.Context, weights []float64, n int, ranges []server.RangeJSON) (*TopNResult, error) {
	if n <= 0 {
		return nil, errors.New("shard: n must be positive")
	}
	req := server.TopNRequest{Weights: weights, N: n, Ranges: ranges}
	per := make([][]core.Result, len(c.groups))
	stats := make([]core.Stats, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for gi := range c.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			start := time.Now()
			resp, err := hedged(ctx, c, gi, func(ctx context.Context, ep *client.Endpoint) (*server.TopNResponse, error) {
				return ep.TopN(ctx, req)
			})
			c.metrics.perShard[gi].latency.Observe(time.Since(start))
			if err != nil {
				errs[gi] = err
				c.metrics.perShard[gi].failures.Add(1)
				c.metrics.shardFailures.Add(1)
				return
			}
			per[gi], stats[gi] = wireResults(resp.Results), wireStats(resp.Stats)
		}(gi)
	}
	wg.Wait()
	c.metrics.queries.Add(1)
	failed := collectFailures(errs)
	if len(failed) == len(c.groups) {
		c.metrics.totalFailures.Add(1)
		return nil, fmt.Errorf("shard: all %d shard groups failed: %w", len(c.groups), failed[0].Err)
	}
	res := &TopNResult{Results: MergeTopN(per, n), Stats: MergeStats(stats)}
	if len(failed) > 0 {
		c.metrics.partialResults.Add(1)
		perr := &PartialError{Failed: failed}
		res.Failed = perr.Shards()
		return res, perr
	}
	return res, nil
}

// BatchResult answers a batch fan-out positionally, like the
// single-node batch endpoint.
type BatchResult struct {
	Queries []TopNResult
	// Failed lists shard groups that contributed to no query.
	Failed []int
}

// TopNBatch fans a whole batch out to every shard group — one request
// per group carrying every query — and merges per query position. Failure semantics match TopN; a failed group is
// missing from every query of the batch.
func (c *Coordinator) TopNBatch(ctx context.Context, weights [][]float64, n int) (*BatchResult, error) {
	if n <= 0 {
		return nil, errors.New("shard: n must be positive")
	}
	if len(weights) == 0 {
		return nil, errors.New("shard: no queries")
	}
	req := server.TopNBatchRequest{Weights: weights, N: n}
	type shardAnswer struct {
		results [][]core.Result
		stats   []core.Stats
	}
	answers := make([]shardAnswer, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for gi := range c.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			start := time.Now()
			resp, err := hedged(ctx, c, gi, func(ctx context.Context, ep *client.Endpoint) (*server.TopNBatchResponse, error) {
				return ep.TopNBatch(ctx, req)
			})
			c.metrics.perShard[gi].latency.Observe(time.Since(start))
			if err != nil {
				errs[gi] = err
				c.metrics.perShard[gi].failures.Add(1)
				c.metrics.shardFailures.Add(1)
				return
			}
			ans := shardAnswer{
				results: make([][]core.Result, len(resp.Queries)),
				stats:   make([]core.Stats, len(resp.Queries)),
			}
			for q, tr := range resp.Queries {
				ans.results[q] = wireResults(tr.Results)
				ans.stats[q] = wireStats(tr.Stats)
			}
			answers[gi] = ans
		}(gi)
	}
	wg.Wait()
	c.metrics.batchRequests.Add(1)
	failed := collectFailures(errs)
	if len(failed) == len(c.groups) {
		c.metrics.totalFailures.Add(1)
		return nil, fmt.Errorf("shard: all %d shard groups failed: %w", len(c.groups), failed[0].Err)
	}
	out := &BatchResult{Queries: make([]TopNResult, len(weights))}
	for q := range weights {
		per := make([][]core.Result, 0, len(c.groups))
		stats := make([]core.Stats, 0, len(c.groups))
		for gi := range c.groups {
			if errs[gi] != nil {
				continue
			}
			if q >= len(answers[gi].results) {
				continue // a shard answering short is a shard bug; treat as contributing nothing
			}
			per = append(per, answers[gi].results[q])
			stats = append(stats, answers[gi].stats[q])
		}
		out.Queries[q] = TopNResult{Results: MergeTopN(per, n), Stats: MergeStats(stats)}
	}
	if len(failed) > 0 {
		c.metrics.partialResults.Add(1)
		perr := &PartialError{Failed: failed}
		out.Failed = perr.Shards()
		for q := range out.Queries {
			out.Queries[q].Failed = out.Failed
		}
		return out, perr
	}
	return out, nil
}

// Insert routes each record to its owning shard group and applies it
// on every replica of that group (each replica holds a full copy of
// the shard). A group acks once at least one of its replicas applied
// the write; replicas that failed are marked diverged, pulled out of
// the read rotation, and owe the write until a resync replays it (see
// writeGroup). Only when no replica of an owning group applied does
// the call fail, and the error names the group.
func (c *Coordinator) Insert(ctx context.Context, recs []core.Record) (int, error) {
	if len(recs) == 0 {
		return 0, errors.New("shard: no records")
	}
	c.metrics.insertOps.Add(1)
	byShard := Partition(c.part, recs)
	var wg sync.WaitGroup
	errs := make([]error, len(c.groups))
	for gi, part := range byShard {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(gi int, part []core.Record) {
			defer wg.Done()
			_, errs[gi] = c.writeGroup(ctx, gi, pendingWrite{insert: part})
		}(gi, part)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		c.metrics.writeFailures.Add(1)
		return 0, err
	}
	return len(recs), nil
}

// Delete removes ids and reports how many were found and deleted. The
// contract matches a single node's: it is an error (core.ErrNotFound)
// only when NOTHING was deleted — when every requested ID was absent
// everywhere. A partially-found request succeeds and reports the
// applied count; callers that need strict existence can compare it to
// len(ids). Duplicate IDs in the request count once.
//
// Routing: with an ID-routable partitioner (hash) each group receives
// exactly its own subset; with vector-dependent partitioning (cluster)
// the delete broadcasts to every group. Both paths ask the shards for
// missing-ok deletes — whether the request as a whole found anything
// is decided here from the aggregate, not by any one shard, because no
// single shard can distinguish "ID absent from the corpus" from "ID
// owned by a sibling shard".
func (c *Coordinator) Delete(ctx context.Context, ids []uint64) (int, error) {
	if len(ids) == 0 {
		return 0, errors.New("shard: no ids")
	}
	c.metrics.deleteOps.Add(1)
	ids = dedupIDs(ids)
	byShard := make([][]uint64, len(c.groups))
	routable := true
	for _, id := range ids {
		gi, ok := c.part.OwnerByID(id)
		if !ok {
			routable = false
			break
		}
		byShard[gi] = append(byShard[gi], id)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.groups))
	applied := make([]int, len(c.groups))
	for gi := range c.groups {
		part := byShard[gi]
		if routable && len(part) == 0 {
			continue
		}
		if !routable {
			part = ids // broadcast: every group sees the full set
		}
		wg.Add(1)
		go func(gi int, part []uint64) {
			defer wg.Done()
			applied[gi], errs[gi] = c.writeGroup(ctx, gi, pendingWrite{del: part, delMissingOK: true})
		}(gi, part)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		c.metrics.writeFailures.Add(1)
		return 0, err
	}
	total := 0
	for _, a := range applied {
		total += a
	}
	if total == 0 {
		c.metrics.writeFailures.Add(1)
		return 0, fmt.Errorf("shard: %w: none of the %d id(s) found on any shard", core.ErrNotFound, len(ids))
	}
	return total, nil
}

// dedupIDs drops repeated IDs, keeping first-occurrence order. Shards
// dedup internally, so a duplicated ID in the request would apply once
// but be expected twice — making an aggregate-vs-requested comparison
// lie. Deduping at the door keeps "applied" counting distinct IDs.
func dedupIDs(ids []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(ids))
	out := make([]uint64, 0, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// writeGroup applies one mutation to every replica of a group, in
// replica order. The group acks as soon as any replica applied: the
// returned count is the first successful replica's. A replica that
// fails after a sibling acked is DIVERGED — it missed a mutation the
// caller was told happened — so it is pulled from the read rotation
// and the write is queued for resync; the same goes for replicas that
// were already diverged when this write arrived (their queue grows, in
// order). Only when zero replicas applied does the call fail, and then
// nothing is queued anywhere: the write didn't happen, the group is
// still internally consistent, and the caller is expected to retry.
func (c *Coordinator) writeGroup(ctx context.Context, gi int, pw pendingWrite) (int, error) {
	g := c.groups[gi]
	applied, acked := 0, false
	var firstErr error
	var behind []*replica // replicas that owe this write if it acks
	for ri, r := range g.replicas {
		if r.isDiverged() {
			behind = append(behind, r)
			continue
		}
		n, err := applyWrite(ctx, r.ep, pw)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d replica %d (%s): %w", gi, ri, r.ep.Base(), err)
			}
			behind = append(behind, r)
			continue
		}
		if !acked {
			applied, acked = n, true
		}
	}
	if !acked {
		if firstErr == nil {
			firstErr = fmt.Errorf("shard %d: every replica is diverged and awaiting resync", gi)
		}
		return 0, firstErr
	}
	for _, r := range behind {
		if r.divergeOn(pw) {
			c.metrics.replicaDivergence.Add(1)
		}
	}
	return applied, nil
}

// applyWrite performs one pendingWrite against one endpoint.
func applyWrite(ctx context.Context, ep *client.Endpoint, pw pendingWrite) (int, error) {
	var resp *server.MutateResponse
	var err error
	if len(pw.insert) > 0 {
		resp, err = ep.Insert(ctx, pw.insert)
	} else {
		resp, err = ep.Delete(ctx, pw.del, pw.delMissingOK)
	}
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// drainReplica replays a diverged replica's queued writes in arrival
// order and, once the queue is empty, clears the divergence flag —
// putting the replica back into the read rotation. Reports whether the
// drain completed. Stops (leaving the replica diverged) at the first
// write that still fails; the next probe retries from where it left
// off. alreadyApplied tolerates the duplicate-delivery case: the
// original request may have been applied server-side before the ack
// was lost, so replay answers like 409-duplicate mean "this write is
// already in" and the queue advances.
func (c *Coordinator) drainReplica(ctx context.Context, r *replica) bool {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return false // another drain is mid-replay; let it finish
	}
	r.draining = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.draining = false
		r.mu.Unlock()
	}()
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.diverged = false
			r.mu.Unlock()
			c.metrics.replicaResyncs.Add(1)
			return true
		}
		pw := r.pending[0]
		r.mu.Unlock()
		if _, err := applyWrite(ctx, r.ep, pw); err != nil && !alreadyApplied(pw, err) {
			return false
		}
		r.mu.Lock()
		r.pending = r.pending[1:]
		r.mu.Unlock()
	}
}

// alreadyApplied reports whether a resync replay error proves the
// write is already present on the replica. Mutations are atomic per
// request server-side (the snapshot swaps once or not at all), so a
// 409 on an insert replay means the whole batch is in; a 404 on a
// strict delete replay means the IDs are already gone.
func alreadyApplied(pw pendingWrite, err error) bool {
	var se *client.StatusError
	if !errors.As(err, &se) {
		return false
	}
	if len(pw.insert) > 0 {
		return se.Code == http.StatusConflict
	}
	return !pw.delMissingOK && se.Code == http.StatusNotFound
}

// ResyncReplicas synchronously replays every diverged replica's queued
// writes (the probe loop does the same in the background). It returns
// the number of replicas restored to the read rotation.
func (c *Coordinator) ResyncReplicas(ctx context.Context) int {
	restored := 0
	for _, g := range c.groups {
		for _, r := range g.replicas {
			if r.isDiverged() && c.drainReplica(ctx, r) {
				restored++
			}
		}
	}
	return restored
}

func collectFailures(errs []error) []ShardError {
	var out []ShardError
	for gi, err := range errs {
		if err != nil {
			out = append(out, ShardError{Shard: gi, Err: err})
		}
	}
	return out
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
