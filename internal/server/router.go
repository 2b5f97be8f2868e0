package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/rundb"
	"asyncsyn/internal/synerr"
)

// RouterConfig tunes the cluster router. Shards is required; every
// other field has a default applied by NewRouter.
type RouterConfig struct {
	// Shards lists the shard daemon base URLs (e.g. "http://host:8713"
	// or bare "host:8713", which defaults to http).
	Shards []string
	// Replicas is the virtual-point count per shard on the hash ring
	// (default 128).
	Replicas int
	// ShardTimeout bounds one forwarded request attempt (default 5m —
	// synthesis is slow work; the per-job deadline inside the shard is
	// the real budget).
	ShardTimeout time.Duration
	// HealthTimeout bounds one /healthz probe of a shard (default 2s).
	HealthTimeout time.Duration
	// MaxBatch bounds the entries of one POST /v1/batch request
	// (default 256).
	MaxBatch int
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replicas <= 0 {
		c.Replicas = 128
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Router is the cluster front: a stateless HTTP proxy that
// consistent-hashes each synthesis request by its canonical problem
// signature onto the shard pool, fails over along the hash ring when
// a shard is down or draining, fans batch requests out shard-wise,
// and aggregates per-shard health and latency on /metrics. It holds
// no cache and runs no synthesis itself, so any number of routers can
// front one pool.
type Router struct {
	cfg    RouterConfig
	shards []string // normalized base URLs, index-aligned with the ring
	ring   *ring
	client *http.Client
	stats  *routerStats
}

// NewRouter builds a Router over the given shard pool.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	shards, err := normalizePeers(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	return &Router{
		cfg:    cfg,
		shards: shards,
		ring:   newRing(shards, cfg.Replicas),
		client: cfg.Client,
		stats:  newRouterStats(len(shards)),
	}, nil
}

// routerRoutes mirrors shardRoutes for the router front; RouterRoutes
// and Handler both derive from it.
var routerRoutes = []struct {
	pattern string
	handler func(*Router) http.HandlerFunc
}{
	{"POST /v1/synthesize", func(rt *Router) http.HandlerFunc { return rt.handleSynthesize }},
	{"POST /v1/batch", func(rt *Router) http.HandlerFunc { return rt.handleBatch }},
	{"GET /v1/jobs/{id}", func(rt *Router) http.HandlerFunc { return rt.handleJob }},
	{"GET /v1/runs", func(rt *Router) http.HandlerFunc { return rt.handleRuns }},
	{"GET /v1/runs/{id}", func(rt *Router) http.HandlerFunc { return rt.handleRun }},
	{"GET /v1/benchmarks", func(rt *Router) http.HandlerFunc { return rt.handleBenchmarks }},
	{"GET /metrics", func(rt *Router) http.HandlerFunc { return rt.handleMetrics }},
	{"GET /healthz", func(rt *Router) http.HandlerFunc { return rt.handleHealthz }},
}

// RouterRoutes returns every "METHOD /path" pattern the router serves
// (a subset of Routes: the router fronts shards, it does not hold a
// cache of its own, so the /v1/cache exchange stays shard-to-shard).
func RouterRoutes() []string {
	out := make([]string, len(routerRoutes))
	for i, r := range routerRoutes {
		out[i] = r.pattern
	}
	return out
}

// Handler returns the router's route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range routerRoutes {
		mux.HandleFunc(r.pattern, r.handler(rt))
	}
	return mux
}

// routeKey computes the routing key of one request: the canonical
// rendering of its parsed STG. Parsing and re-formatting normalizes
// whitespace, comments and declaration noise, so every spelling of
// one specification lands on one shard — which is what lets that
// shard's solve cache specialize on the signatures the specification
// produces. Options are deliberately excluded: method, encoding or
// budget sweeps over one STG share the shard and therefore the cache.
func routeKey(req Request) (string, error) {
	src := req.STG
	switch {
	case req.STG != "" && req.Bench != "":
		return "", synerr.Parse(fmt.Errorf(`"stg" and "bench" are mutually exclusive`))
	case req.Bench != "":
		b, err := bench.Source(req.Bench)
		if err != nil {
			return "", synerr.Parse(err)
		}
		src = b
	case req.STG == "":
		return "", synerr.Parse(fmt.Errorf(`one of "stg" or "bench" is required`))
	}
	g, err := asyncsyn.ParseSTGString(src)
	if err != nil {
		return "", err
	}
	if err := g.Validate(); err != nil {
		return "", synerr.Parse(err)
	}
	return g.Format(), nil
}

// handleSynthesize decodes enough of the request to route it, then
// forwards the original body to the owner shard, failing over along
// the ring.
func (rt *Router) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
	if err != nil {
		rt.writeError(w, synerr.Parse(fmt.Errorf("request body: %w", err)), start)
		return
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.writeError(w, synerr.Parse(fmt.Errorf("request body: %w", err)), start)
		return
	}
	key, err := routeKey(req)
	if err != nil {
		rt.writeError(w, err, start)
		return
	}
	path := "/v1/synthesize"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	rt.forward(w, r.Context(), rt.ring.sequence(key), http.MethodPost, path, body, start)
}

// handleBatch splits a batch by owner shard, forwards the sub-batches
// concurrently, and reassembles the responses in request order.
// Entries that fail to route (parse errors) answer per-entry 400
// without touching a shard.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var breq BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		rt.writeError(w, synerr.Parse(fmt.Errorf("request body: %w", err)), start)
		return
	}
	if len(breq.Requests) == 0 {
		rt.writeError(w, synerr.Parse(fmt.Errorf(`"requests" must not be empty`)), start)
		return
	}
	if len(breq.Requests) > rt.cfg.MaxBatch {
		rt.writeError(w, synerr.Parse(
			fmt.Errorf("batch of %d exceeds the %d-entry cap", len(breq.Requests), rt.cfg.MaxBatch)), start)
		return
	}

	entries := make([]BatchEntry, len(breq.Requests))
	groups := make(map[int][]int) // owner shard index → request indices
	keys := make(map[int]string)  // owner shard index → a routing key (for failover order)
	for i, req := range breq.Requests {
		key, err := routeKey(req)
		if err != nil {
			class := synerr.ClassOf(err)
			entries[i] = BatchEntry{Status: class.HTTPStatus(), Response: *errorResponse(err)}
			continue
		}
		owner := rt.ring.sequence(key)[0]
		groups[owner] = append(groups[owner], i)
		if _, ok := keys[owner]; !ok {
			keys[owner] = key
		}
	}

	path := "/v1/batch"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			sub := BatchRequest{Requests: make([]Request, len(idxs))}
			for j, i := range idxs {
				sub.Requests[j] = breq.Requests[i]
			}
			body, _ := json.Marshal(&sub)
			status, respBody, _ := rt.forwardBytes(r.Context(), rt.ring.sequence(keys[owner]), http.MethodPost, path, body)
			var bresp BatchResponse
			ok := status == http.StatusOK && json.Unmarshal(respBody, &bresp) == nil &&
				len(bresp.Responses) == len(idxs)
			mu.Lock()
			for j, i := range idxs {
				if ok {
					entries[i] = bresp.Responses[j]
				} else {
					entries[i] = BatchEntry{Status: http.StatusBadGateway, Response: Response{
						Error: "no shard available", Class: "unavailable",
					}}
				}
			}
			mu.Unlock()
		}(owner, idxs)
	}
	wg.Wait()
	rt.writeJSON(w, http.StatusOK, &BatchResponse{Responses: entries}, start)
}

// handleJob broadcasts GET /v1/jobs/{id} to the pool — job ids are
// shard-local, so the router asks everyone and relays the first
// answer that isn't 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	path := "/v1/jobs/" + r.PathValue("id")
	type result struct {
		status int
		body   []byte
		shard  int
	}
	results := make(chan result, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := rt.tryShard(r.Context(), i, http.MethodGet, path, nil)
			if err != nil {
				return
			}
			results <- result{status, body, i}
		}(i)
	}
	wg.Wait()
	close(results)
	var best *result
	for res := range results {
		res := res
		if res.status != http.StatusNotFound {
			best = &res
			break
		}
		if best == nil {
			best = &res
		}
	}
	if best == nil {
		rt.writeJSON(w, http.StatusNotFound, &Response{Error: "no such job", Class: "not_found"}, start)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Modsynd-Shard", rt.shards[best.shard])
	w.WriteHeader(best.status)
	w.Write(best.body)
	rt.stats.record(best.status, start)
}

// handleRuns fans GET /v1/runs out to every shard and merges the
// pages: run history is shard-local (each shard records the jobs it
// executed), so the cluster view is the union. Each shard is asked for
// the window [0, offset+limit) of its own newest-first history; the
// merged result is re-sorted newest first and the requested window
// sliced locally. Total is the sum of the shard totals. Shards without
// a run database (or down) contribute nothing; if no shard has one,
// the 503 is relayed.
func (rt *Router) handleRuns(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		rt.writeError(w, synerr.Parse(fmt.Errorf("offset: %w", err)), start)
		return
	}
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		rt.writeError(w, synerr.Parse(fmt.Errorf("limit: %w", err)), start)
		return
	}
	if limit <= 0 {
		limit = rundb.DefaultLimit
	}
	if limit > rundb.MaxLimit {
		limit = rundb.MaxLimit
	}

	// Rewrite the window for the shard fan-out: to assemble the global
	// page [offset, offset+limit) we need each shard's newest
	// offset+limit records.
	sq := r.URL.Query()
	sq.Set("offset", "0")
	sq.Set("limit", strconv.Itoa(min(offset+limit, rundb.MaxLimit)))
	path := "/v1/runs?" + sq.Encode()

	type result struct {
		page RunsResponse
		ok   bool
	}
	results := make([]result, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := rt.tryShard(r.Context(), i, http.MethodGet, path, nil)
			if err != nil || status != http.StatusOK {
				return
			}
			if json.Unmarshal(body, &results[i].page) == nil {
				results[i].ok = true
			}
		}(i)
	}
	wg.Wait()

	total, answered := 0, 0
	var merged []RunSummary
	for _, res := range results {
		if !res.ok {
			continue
		}
		answered++
		total += res.page.Total
		merged = append(merged, res.page.Runs...)
	}
	if answered == 0 {
		rt.writeJSON(w, http.StatusServiceUnavailable, &Response{
			Error: "run database disabled on every shard", Class: "rundb_disabled",
		}, start)
		return
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].UnixMS != merged[j].UnixMS {
			return merged[i].UnixMS > merged[j].UnixMS
		}
		return merged[i].ID > merged[j].ID
	})
	if offset > len(merged) {
		merged = nil
	} else {
		merged = merged[offset:]
	}
	if len(merged) > limit {
		merged = merged[:limit]
	}
	if merged == nil {
		merged = []RunSummary{}
	}
	rt.writeJSON(w, http.StatusOK, &RunsResponse{
		Total: total, Offset: offset, Limit: limit, Runs: merged,
	}, start)
}

// handleRun broadcasts GET /v1/runs/{id} to the pool — run ids are
// shard-local like job ids, so the router asks everyone and relays
// the first answer that is neither 404 nor rundb-disabled 503.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	path := "/v1/runs/" + r.PathValue("id")
	type result struct {
		status int
		body   []byte
		shard  int
	}
	results := make(chan result, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := rt.tryShard(r.Context(), i, http.MethodGet, path, nil)
			if err != nil {
				return
			}
			results <- result{status, body, i}
		}(i)
	}
	wg.Wait()
	close(results)
	var best *result
	for res := range results {
		res := res
		if res.status != http.StatusNotFound && res.status != http.StatusServiceUnavailable {
			best = &res
			break
		}
		if best == nil || (best.status == http.StatusServiceUnavailable && res.status == http.StatusNotFound) {
			best = &res
		}
	}
	if best == nil {
		rt.writeJSON(w, http.StatusNotFound, &Response{Error: "no such run", Class: "not_found"}, start)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Modsynd-Shard", rt.shards[best.shard])
	w.WriteHeader(best.status)
	w.Write(best.body)
	rt.stats.record(best.status, start)
}

// handleBenchmarks answers locally: the embedded suite is compiled
// into every binary, shard or router alike.
func (rt *Router) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.writeJSON(w, http.StatusOK, map[string][]string{"benchmarks": bench.Available()}, start)
}

// handleHealthz probes every shard's /healthz concurrently, refreshes
// the up gauges, and reports the pool: 200 while at least one shard
// is healthy, 503 otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	states := make([]string, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.shards[i]+"/healthz", nil)
			if err != nil {
				states[i] = "down"
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				states[i] = "down"
				rt.stats.setUp(i, false)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				states[i] = "ok"
				rt.stats.setUp(i, true)
			} else {
				states[i] = "down"
				rt.stats.setUp(i, false)
			}
		}(i)
	}
	wg.Wait()
	healthy := 0
	byShard := make(map[string]string, len(rt.shards))
	for i, st := range states {
		byShard[rt.shards[i]] = st
		if st == "ok" {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, status, map[string]any{"shards": byShard, "healthy": healthy}, start)
}

// forward relays one request down the failover sequence and writes
// the first usable shard response to w.
func (rt *Router) forward(w http.ResponseWriter, ctx context.Context, seq []int, method, path string, body []byte, start time.Time) {
	status, respBody, shard := rt.forwardBytes(ctx, seq, method, path, body)
	if shard < 0 {
		rt.writeJSON(w, http.StatusBadGateway, &Response{
			Error: "no shard available", Class: "unavailable",
		}, start)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Modsynd-Shard", rt.shards[shard])
	w.WriteHeader(status)
	w.Write(respBody)
	rt.stats.record(status, start)
}

// failoverStatus reports whether a shard response should push the
// request to the next ring position: the shard is overloaded (429),
// draining (503), or behind a dead gateway (502/504). Deterministic
// outcomes — 2xx, parse 400, budget 422, timeout 408 — are relayed:
// another shard would answer the same.
func failoverStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forwardBytes tries each shard of seq in order and returns the first
// non-failover response. shard is -1 when every attempt failed at the
// transport level; when shards answered only failover statuses the
// last such response is returned so the client sees the pool's state
// (e.g. a 429 with its Retry-After semantics).
func (rt *Router) forwardBytes(ctx context.Context, seq []int, method, path string, body []byte) (status int, respBody []byte, shard int) {
	status, shard = 0, -1
	for attempt, idx := range seq {
		if attempt > 0 {
			rt.stats.failover.Add(1)
		}
		st, b, err := rt.tryShard(ctx, idx, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return status, respBody, shard
			}
			continue
		}
		if !failoverStatus(st) {
			return st, b, idx
		}
		status, respBody, shard = st, b, idx
	}
	return status, respBody, shard
}

// tryShard performs one attempt against one shard, recording its
// latency and outcome in the per-shard stats.
func (rt *Router) tryShard(ctx context.Context, idx int, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.shards[idx]+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	begin := time.Now()
	resp, err := rt.client.Do(req)
	rt.stats.observe(idx, time.Since(begin))
	if err != nil {
		rt.stats.fail(idx)
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		rt.stats.fail(idx)
		return 0, nil, err
	}
	rt.stats.setUp(idx, true)
	return resp.StatusCode, b, nil
}

func (rt *Router) writeError(w http.ResponseWriter, err error, start time.Time) {
	class := synerr.ClassOf(err)
	rt.writeJSON(w, class.HTTPStatus(), errorResponse(err), start)
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, body any, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
	rt.stats.record(status, start)
}

// routerStats holds the router-level counters exposed on /metrics.
type routerStats struct {
	requests atomic.Int64 // finished router responses
	failover atomic.Int64 // attempts pushed past the owner shard

	up        []atomic.Int64 // 1 = last contact ok
	reqs      []atomic.Int64 // forwarded attempts per shard
	fails     []atomic.Int64 // transport-level failures per shard
	latSumUS  []atomic.Int64 // forwarded latency sum, microseconds
	latCount  []atomic.Int64
	latencyUS atomic.Int64 // whole-router response latency sum
}

func newRouterStats(n int) *routerStats {
	st := &routerStats{
		up:       make([]atomic.Int64, n),
		reqs:     make([]atomic.Int64, n),
		fails:    make([]atomic.Int64, n),
		latSumUS: make([]atomic.Int64, n),
		latCount: make([]atomic.Int64, n),
	}
	for i := range st.up {
		st.up[i].Store(1) // optimistic until proven otherwise
	}
	return st
}

func (st *routerStats) record(status int, start time.Time) {
	st.requests.Add(1)
	st.latencyUS.Add(time.Since(start).Microseconds())
}

func (st *routerStats) observe(idx int, d time.Duration) {
	st.reqs[idx].Add(1)
	st.latSumUS[idx].Add(d.Microseconds())
	st.latCount[idx].Add(1)
}

func (st *routerStats) fail(idx int) {
	st.fails[idx].Add(1)
	st.up[idx].Store(0)
}

func (st *routerStats) setUp(idx int, up bool) {
	if up {
		st.up[idx].Store(1)
	} else {
		st.up[idx].Store(0)
	}
}

// handleMetrics is the router's GET /metrics: pool-level counters and
// per-shard health, traffic, failure and latency series.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.stats
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP modsynd_router_requests_total Finished router responses.\n# TYPE modsynd_router_requests_total counter\nmodsynd_router_requests_total %d\n", st.requests.Load())
	fmt.Fprintf(w, "# HELP modsynd_router_failover_total Requests retried past the owner shard.\n# TYPE modsynd_router_failover_total counter\nmodsynd_router_failover_total %d\n", st.failover.Load())
	fmt.Fprintf(w, "# HELP modsynd_router_response_seconds_sum Whole-router response latency sum.\n# TYPE modsynd_router_response_seconds_sum counter\nmodsynd_router_response_seconds_sum %g\n", float64(st.latencyUS.Load())/1e6)

	series := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	series("modsynd_shard_up", "1 while the shard's last contact succeeded.", "gauge")
	for i, s := range rt.shards {
		fmt.Fprintf(w, "modsynd_shard_up{shard=%q} %d\n", s, st.up[i].Load())
	}
	series("modsynd_shard_requests_total", "Forwarded attempts per shard.", "counter")
	for i, s := range rt.shards {
		fmt.Fprintf(w, "modsynd_shard_requests_total{shard=%q} %d\n", s, st.reqs[i].Load())
	}
	series("modsynd_shard_failures_total", "Transport-level failures per shard.", "counter")
	for i, s := range rt.shards {
		fmt.Fprintf(w, "modsynd_shard_failures_total{shard=%q} %d\n", s, st.fails[i].Load())
	}
	series("modsynd_shard_latency_seconds_sum", "Forwarded request latency sum per shard.", "counter")
	for i, s := range rt.shards {
		fmt.Fprintf(w, "modsynd_shard_latency_seconds_sum{shard=%q} %g\n", s, float64(st.latSumUS[i].Load())/1e6)
	}
	series("modsynd_shard_latency_seconds_count", "Forwarded request count per shard.", "counter")
	for i, s := range rt.shards {
		fmt.Fprintf(w, "modsynd_shard_latency_seconds_count{shard=%q} %d\n", s, st.latCount[i].Load())
	}
	st.record(http.StatusOK, time.Now())
}
