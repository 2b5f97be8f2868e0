// Command modsynd is the synthesis daemon: a long-lived HTTP service
// over the asyncsyn library, sharing one solve cache and one metrics
// collector across every request. With -shards it runs instead as the
// cluster router: a stateless front that consistent-hashes requests by
// canonical problem signature onto a pool of modsynd shards.
//
// Usage:
//
//	modsynd [-addr host:port] [-cachedir dir] [-rundb dir]
//	        [-maxinflight N] [-queuedepth N] [-timeout D] [-maxtimeout D]
//	        [-workers N] [-retryafter D]
//	        [-peers host1,host2,...] [-peertimeout D]
//	modsynd -shards host1,host2,... [-addr host:port]
//	        [-shardtimeout D] [-replicas N]
//
// Endpoints (shard mode; see docs/API.md for the full reference):
//
//	POST /v1/synthesize   synthesize an STG (JSON body; ?trace=1 adds
//	                      the run's JSON-lines trace to the response;
//	                      "async": true returns a job id immediately)
//	POST /v1/batch        synthesize an STG suite in one admission
//	GET  /v1/jobs/{id}    poll an async job
//	GET  /v1/runs         run history from the -rundb database
//	                      (?signature=, ?model=, ?offset=, ?limit=)
//	GET  /v1/runs/{id}    one full run record
//	GET  /v1/benchmarks   list the embedded benchmark names
//	GET  /v1/cache/{key}  serve a solve-cache record to a peer
//	PUT  /v1/cache/{key}  accept a solve-cache record from a peer
//	GET  /metrics         Prometheus text metrics
//	GET  /healthz         liveness (503 while draining)
//
// Router mode serves the same /v1/synthesize, /v1/batch, /v1/jobs,
// /v1/runs, /v1/benchmarks surface plus pool-level /metrics and
// /healthz; the cache exchange stays shard-to-shard. Requests are forwarded to the
// shard owning the specification's signature on a consistent-hash
// ring, with failover to the next ring position when a shard is down,
// draining, or overloaded.
//
// Admission control bounds concurrent work: at most -maxinflight jobs
// run at once and at most -queuedepth wait; excess requests receive
// 429 with a Retry-After header. SIGINT/SIGTERM triggers graceful
// shutdown: admission stops, in-flight jobs drain, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asyncsyn/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8713", "listen address")
	cacheDir := flag.String("cachedir", "", "back the shared solve cache with on-disk records under this directory")
	runDBDir := flag.String("rundb", "", "record every completed synthesis in a run database under this directory and serve history on /v1/runs")
	maxInflight := flag.Int("maxinflight", 0, "max concurrently running synthesis jobs (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queuedepth", -1, "max admitted jobs waiting for a slot (0 = reject when busy; -1 = default 64)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request synthesis deadline")
	maxTimeout := flag.Duration("maxtimeout", 10*time.Minute, "cap on the per-request deadline a client may ask for")
	retryAfter := flag.Duration("retryafter", time.Second, "Retry-After hint returned with 429 responses")
	workers := flag.Int("workers", 0, "per-job worker pool bound for logic derivation (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max time to drain in-flight jobs on shutdown before canceling them")
	peers := flag.String("peers", "", "comma-separated sibling shard base URLs to pull cache records from on miss")
	peerTimeout := flag.Duration("peertimeout", 2*time.Second, "per-peer cache fetch timeout")
	shards := flag.String("shards", "", "comma-separated shard base URLs; non-empty switches to router mode")
	shardTimeout := flag.Duration("shardtimeout", 5*time.Minute, "router: per-attempt forward timeout")
	replicas := flag.Int("replicas", 0, "router: virtual points per shard on the hash ring (0 = default 128)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *shards != "" {
		runRouter(*addr, splitList(*shards), *shardTimeout, *replicas, *drainTimeout)
		return
	}

	cfg := server.Config{
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		Workers:        *workers,
		CacheDir:       *cacheDir,
		RunDBDir:       *runDBDir,
		Peers:          splitList(*peers),
		PeerTimeout:    *peerTimeout,
	}
	switch {
	case *queueDepth == 0:
		cfg.NoQueue = true
	case *queueDepth > 0:
		cfg.QueueDepth = *queueDepth
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("modsynd: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("modsynd: listening on %s (cachedir=%q rundb=%q peers=%q)", *addr, *cacheDir, *runDBDir, *peers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("modsynd: %v", err)
	case sig := <-sigCh:
		log.Printf("modsynd: %v: draining (timeout %v)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job queue first (new work is already rejected 503),
	// then close the HTTP listener once responses have gone out.
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("modsynd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("modsynd: http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "modsynd: drained, exiting")
}

// runRouter serves router mode: no jobs of its own to drain, so
// shutdown is just closing the listener.
func runRouter(addr string, shards []string, shardTimeout time.Duration, replicas int, drainTimeout time.Duration) {
	rt, err := server.NewRouter(server.RouterConfig{
		Shards:       shards,
		ShardTimeout: shardTimeout,
		Replicas:     replicas,
	})
	if err != nil {
		log.Fatalf("modsynd: %v", err)
	}
	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("modsynd: router listening on %s (shards=%s)", addr, strings.Join(shards, ","))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("modsynd: %v", err)
	case sig := <-sigCh:
		log.Printf("modsynd: %v: closing router", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("modsynd: http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "modsynd: router closed, exiting")
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
