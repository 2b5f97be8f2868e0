// Package server implements the synthesis daemon behind cmd/modsynd:
// an HTTP JSON API over the asyncsyn facade that turns the one-shot
// library pipeline into a long-lived service. The pieces the package
// owns are the serving concerns the library deliberately does not:
//
//   - Admission control. Jobs run through a bounded slot pool
//     (Config.MaxInFlight) with a bounded wait queue
//     (Config.QueueDepth); a request that would exceed both is
//     answered 429 with a Retry-After header instead of growing an
//     unbounded goroutine pile.
//   - Request deduplication. Identical concurrent requests — same STG
//     text, same options — are detected by content hash and share one
//     synthesis run (singleflight); only the producer occupies a slot.
//   - Shared solve cache. Every request runs against one
//     asyncsyn.SolveCache (optionally disk-backed), so a warm daemon
//     answers repeat traffic from cache with bit-identical circuits.
//   - Deadlines. Each job runs under SynthesizeContext with a
//     per-request timeout (capped by Config.MaxTimeout), so a stuck
//     request can never hold a slot forever.
//   - Observability. GET /metrics renders the shared internal/metrics
//     counters plus server-level gauges and a latency histogram in
//     Prometheus text format; ?trace=1 returns the per-request
//     JSON-lines trace inside the response.
//   - Graceful shutdown. Shutdown stops admission (new work is
//     answered 503), drains admitted jobs through their contexts, and
//     only cancels them when the drain deadline expires.
//
// Beyond the single daemon, the package scales the service out to an
// N-node cluster:
//
//   - Batch admission. POST /v1/batch admits a whole STG suite in one
//     request and fans the entries across the in-flight slots,
//     returning per-entry statuses in request order.
//   - Peer cache exchange. GET/PUT /v1/cache/{key} serve and accept
//     the content-addressed modcache record format, and a node
//     configured with Config.Peers pulls missing records from its
//     siblings (modcache.Remote) before solving locally.
//   - Router mode. NewRouter builds a stateless front that
//     consistent-hashes each request by the canonical problem
//     signature (the parsed STG's canonical rendering) onto a shard
//     pool, fails over around dead shards along the hash ring, fans
//     batches out shard-wise, and exposes per-shard health and
//     latency on /metrics. Because routing is signature-based, each
//     shard's solve cache specializes on its slice of the problem
//     space. Digest parity across every topology — one node or N,
//     cold, disk-warmed or peer-warmed, with or without failover —
//     is pinned by the cluster tests.
//
// Failure classification is shared with cmd/modsyn through
// synerr.ClassOf: parse errors answer 400, expired deadlines 408,
// budget/unsolvable outcomes 422, client-canceled requests 499, and
// everything else 500.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"asyncsyn"
	"asyncsyn/internal/rundb"
)

// Config tunes the daemon. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxInFlight bounds the synthesis jobs running concurrently
	// (default: GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds the admitted jobs waiting for a free slot
	// (default 64). A request arriving with the queue full is rejected
	// with 429. Zero keeps the default; use NoQueue for a depth of 0.
	QueueDepth int
	// NoQueue disables queueing entirely: a request that cannot run
	// immediately is rejected.
	NoQueue bool
	// DefaultTimeout is the per-job deadline applied when a request
	// does not carry one (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job deadline a request may ask for
	// (default 10m).
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Workers is the per-job worker-pool bound passed to the library
	// when the request does not set one (0 = GOMAXPROCS); the library
	// uses it for per-signal logic derivation only.
	Workers int
	// CacheDir, when non-empty, backs the shared solve cache with
	// on-disk records so warm starts survive daemon restarts.
	CacheDir string
	// MaxJobs bounds the finished jobs retained for GET /v1/jobs/{id}
	// (default 256; oldest finished jobs are evicted first).
	MaxJobs int
	// Peers lists sibling shard base URLs (e.g. "http://host:8713")
	// whose caches this node may pull from on a local solve-cache miss
	// (the /v1/cache exchange).
	Peers []string
	// PeerTimeout bounds one peer cache fetch (default 2s). A fetch
	// that misses, fails, or times out falls through to a local solve.
	PeerTimeout time.Duration
	// MaxBatch bounds the entries of one POST /v1/batch request
	// (default 256).
	MaxBatch int
	// RunDBDir, when non-empty, opens a persistent run database
	// (internal/rundb) under this directory: every completed synthesis
	// is recorded, and history is served by GET /v1/runs and
	// GET /v1/runs/{id}. Cross-run digest divergence under an unchanged
	// key is flagged on the record and counted on /metrics.
	RunDBDir string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.NoQueue {
		c.QueueDepth = 0
	} else if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// Server is the synthesis daemon. Construct with New, expose
// Handler() through an http.Server, and call Shutdown to drain.
type Server struct {
	cfg       Config
	cache     *asyncsyn.SolveCache
	collector *asyncsyn.Metrics
	stats     *stats
	// rundb is the persistent run history (nil unless Config.RunDBDir).
	rundb *rundb.DB

	// slots is the running-job semaphore: holding a token = in flight.
	slots chan struct{}

	// baseCtx parents every job context so a forced shutdown can cancel
	// still-running work after the drain deadline.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	jobs *jobStore

	// flights dedups identical concurrent requests: content key → the
	// live job computing it. Entries are removed when the job finishes;
	// after that, repeats are served cheaply by the solve cache instead.
	mu      sync.Mutex
	flights map[string]*job
	seq     int64

	// wg counts admitted jobs (queued and running); Shutdown drains it.
	wg        sync.WaitGroup
	drainOnce sync.Once
	drainCh   chan struct{} // closed when admission stops

	// run executes one admitted job; defaults to (*Server).synthesize.
	// Tests substitute a controllable stub to pin the admission,
	// dedup and drain machinery without real synthesis timing.
	run func(ctx context.Context, j *job) (*Response, int)
}

// New builds a Server from cfg (defaults applied). The error is
// non-nil only when Config.CacheDir cannot be created.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		collector: asyncsyn.NewMetrics(),
		stats:     newStats(),
		slots:     make(chan struct{}, cfg.MaxInFlight),
		jobs:      newJobStore(cfg.MaxJobs),
		flights:   make(map[string]*job),
		drainCh:   make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.run = s.synthesize
	var err error
	if cfg.CacheDir != "" {
		s.cache, err = asyncsyn.NewDiskSolveCache(cfg.CacheDir)
	} else {
		s.cache = asyncsyn.NewSolveCache()
	}
	if err != nil {
		return nil, err
	}
	if cfg.RunDBDir != "" {
		db, err := rundb.Open(cfg.RunDBDir)
		if err != nil {
			return nil, err
		}
		s.rundb = db
	}
	if len(cfg.Peers) > 0 {
		peers, err := normalizePeers(cfg.Peers)
		if err != nil {
			return nil, err
		}
		s.cache.SetRemote(newPeerClient(peers, cfg.PeerTimeout))
	}
	return s, nil
}

// shardRoutes is the single source of truth for the shard daemon's
// route table: Handler registers exactly these patterns and Routes
// reports them, so the docs/API.md coverage test (TestAPIDocCoversRoutes)
// can diff documentation against registration.
var shardRoutes = []struct {
	pattern string
	handler func(*Server) http.HandlerFunc
}{
	{"POST /v1/synthesize", func(s *Server) http.HandlerFunc { return s.handleSynthesize }},
	{"POST /v1/batch", func(s *Server) http.HandlerFunc { return s.handleBatch }},
	{"GET /v1/jobs/{id}", func(s *Server) http.HandlerFunc { return s.handleJob }},
	{"GET /v1/runs", func(s *Server) http.HandlerFunc { return s.handleRuns }},
	{"GET /v1/runs/{id}", func(s *Server) http.HandlerFunc { return s.handleRun }},
	{"GET /v1/benchmarks", func(s *Server) http.HandlerFunc { return s.handleBenchmarks }},
	{"GET /v1/cache/{key}", func(s *Server) http.HandlerFunc { return s.handleCacheGet }},
	{"PUT /v1/cache/{key}", func(s *Server) http.HandlerFunc { return s.handleCachePut }},
	{"GET /metrics", func(s *Server) http.HandlerFunc { return s.handleMetrics }},
	{"GET /healthz", func(s *Server) http.HandlerFunc { return s.handleHealthz }},
}

// Routes returns every "METHOD /path" pattern the shard daemon serves.
func Routes() []string {
	out := make([]string, len(shardRoutes))
	for i, r := range shardRoutes {
		out[i] = r.pattern
	}
	return out
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range shardRoutes {
		mux.HandleFunc(r.pattern, r.handler(s))
	}
	return mux
}

// draining reports whether admission has stopped.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown stops admission and drains: new requests are answered 503
// immediately, admitted jobs (queued and running) finish under their
// own contexts. If ctx expires before the drain completes, every
// remaining job is canceled through the base context and Shutdown
// returns ctx.Err after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Cache exposes the shared solve cache; tests and embedding callers use
// it to pre-warm or inspect.
func (s *Server) Cache() *asyncsyn.SolveCache { return s.cache }

// Metrics exposes the shared synthesis counter collector.
func (s *Server) Metrics() *asyncsyn.Metrics { return s.collector }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
