package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// senders is the number of sending goroutines and connections. The
// schedule is open loop: each request is due at a fixed offset, a
// sender takes the next due request as soon as it is free, and latency
// runs from the due time, so a stall is charged to every request it
// delays.
const senders = 2

const requestTimeout = 10 * time.Second

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		},
	}
}

// outcome is what one scheduled request did.
type outcome struct {
	id   int64         // request id, sent in the reqHeader header
	lat  time.Duration // done minus due
	lag  time.Duration // sent minus due
	sent time.Time
	done time.Time
	err  error
	body []byte
}

func (o *outcome) failed() bool { return o.err != nil }

type loadgen struct {
	hc          *http.Client
	base        string
	inflight    atomic.Int64
	inflightMax atomic.Int64
	// reqBase numbers requests across phases; a traced server reads the
	// id from the reqHeader header.
	reqBase atomic.Int64
	// spans, when set, receives a "request" span per request.
	spans *tracer
}

const reqHeader = "X-Perfbench-Req"

func (g *loadgen) noteInflight(d int64) {
	v := g.inflight.Add(d)
	for {
		m := g.inflightMax.Load()
		if v <= m || g.inflightMax.CompareAndSwap(m, v) {
			return
		}
	}
}

// post sends one request and reads the whole reply; a non-2xx status is
// an error carrying the reply.
func (g *loadgen) post(path string, body []byte, reqID int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// run sends ops on their schedule from start and returns one outcome
// per op. Read replies are kept for verification; write replies are not.
func (g *loadgen) run(ops []op, start time.Time) []outcome {
	out := make([]outcome, len(ops))
	base := g.reqBase.Add(int64(len(ops))) - int64(len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					sleepPrecise(d)
				}
				sent := time.Now()
				g.noteInflight(1)
				body, err := g.post(kindPaths[o.kind], o.body, base+int64(i))
				g.noteInflight(-1)
				done := time.Now()
				r := &out[i]
				r.id, r.sent, r.done, r.err = base+int64(i), sent, done, err
				if g.spans != nil {
					g.spans.add("request", kindNames[o.kind], r.id, 0, sent, done)
				}
				r.lat, r.lag = done.Sub(due), sent.Sub(due)
				if o.kind == kTopN || o.kind == kBatch {
					r.body = body
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepPrecise sleeps on the kernel's high-resolution timer. An idle Go
// process waits for its timers in whole milliseconds (the netpoller's
// epoll timeout), which at these request rates would add up to a
// millisecond of generator lag to every latency.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// interrupted (the runtime preempts with signals): sleep the rest
	}
}

// phaseStats summarises one phase's outcomes.
type phaseStats struct {
	lat      [numKinds][]float64 // ms; a failed request counts as +Inf
	count    [numKinds]int
	failed   int
	lagMs    []float64
	lagGrew  bool
	achieved float64 // requests completed per second
}

// lagGrowthMs is how far the median lag of a phase's last tenth may
// exceed that of its first tenth before the generator counts as falling
// behind.
const lagGrowthMs = 1.0

func summarise(ops []op, out []outcome) phaseStats {
	var ps phaseStats
	var first, last time.Time
	for i := range ops {
		k := ops[i].kind
		ps.count[k]++
		v := ms(out[i].lat)
		if out[i].failed() {
			ps.failed++
			v = math.Inf(1)
		}
		ps.lat[k] = append(ps.lat[k], v)
		ps.lagMs = append(ps.lagMs, ms(out[i].lag))
		if first.IsZero() || out[i].sent.Before(first) {
			first = out[i].sent
		}
		if out[i].done.After(last) {
			last = out[i].done
		}
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		ps.achieved = float64(len(ops)) / span
	}
	if tenth := len(ps.lagMs) / 10; tenth > 0 {
		head := quantile(ps.lagMs[:tenth], 0.5)
		tail := quantile(ps.lagMs[len(ps.lagMs)-tenth:], 0.5)
		ps.lagGrew = tail-head > lagGrowthMs
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
