package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/modcache"
)

// shardFixture is one in-process shard: the Server and the real HTTP
// listener the router reaches it through.
type shardFixture struct {
	srv *Server
	ts  *httptest.Server
}

func startShard(t *testing.T, cfg Config) *shardFixture {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &shardFixture{srv: s, ts: ts}
}

// startCluster builds n shards (cfg applied to each, with per-shard
// Peers optionally pointing at warm's listener) and a router over them.
func startCluster(t *testing.T, n int, cfg Config) ([]*shardFixture, *Router) {
	t.Helper()
	shards := make([]*shardFixture, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t, cfg)
		urls[i] = shards[i].ts.URL
	}
	rt, err := NewRouter(RouterConfig{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	return shards, rt
}

// libraryDigests computes the reference digests every topology must
// reproduce bit for bit: the direct library path, uncached.
func libraryDigests(t *testing.T, names []string) map[string]string {
	t.Helper()
	want := make(map[string]string, len(names))
	for _, name := range names {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		stg, err := asyncsyn.ParseSTGString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := asyncsyn.Synthesize(stg, asyncsyn.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = c.Digest()
	}
	return want
}

// postThrough posts one benchmark through a handler and returns the
// decoded response.
func postThrough(t *testing.T, h http.Handler, name string) (*Response, *httptest.ResponseRecorder) {
	t.Helper()
	return postSynth(t, h, fmt.Sprintf(`{"bench":%q}`, name), "")
}

// TestClusterDigestParity is the tentpole acceptance test: response
// digests are bit-identical across every distribution topology — one
// shard behind a router, three cold shards, three peer-warmed shards,
// and three shards with one induced failure (router failover) — all
// equal to the direct library path.
func TestClusterDigestParity(t *testing.T) {
	names := quickNames()
	if len(names) < 3 {
		t.Fatal("quick set too small")
	}
	want := libraryDigests(t, names)

	check := func(t *testing.T, h http.Handler, topology string) {
		for _, name := range names {
			resp, w := postThrough(t, h, name)
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", topology, name, w.Code, w.Body.String())
			}
			if resp.Digest != want[name] {
				t.Errorf("%s %s: digest %s != library %s", topology, name, resp.Digest, want[name])
			}
		}
	}

	// The single shard lives at the parent scope so its listener stays
	// up for the peer-warmed topology: after the one-shard run its
	// cache holds every module record of the quick set.
	warm := startShard(t, Config{MaxInFlight: 2})
	warmed := false
	t.Run("one-shard", func(t *testing.T) {
		rt, err := NewRouter(RouterConfig{Shards: []string{warm.ts.URL}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rt.Handler(), "1-shard")
		warmed = true
	})

	t.Run("three-shard-cold", func(t *testing.T) {
		shards, rt := startCluster(t, 3, Config{MaxInFlight: 2})
		check(t, rt.Handler(), "3-shard")
		// Signature routing must actually spread the suite: more than
		// one shard's cache ends up populated.
		populated := 0
		for _, sh := range shards {
			if sh.srv.Cache().Len() > 0 {
				populated++
			}
		}
		if populated < 2 {
			t.Errorf("suite landed on %d shards, want >= 2 (ring not spreading)", populated)
		}
	})

	t.Run("three-shard-peer-warmed", func(t *testing.T) {
		if !warmed {
			t.Skip("one-shard topology did not run")
		}
		shards, rt := startCluster(t, 3, Config{MaxInFlight: 2, Peers: []string{warm.ts.URL}})
		check(t, rt.Handler(), "peer-warmed")
		var peerHits int64
		for _, sh := range shards {
			peerHits += metricValue(t, sh.srv.Handler(), "asyncsyn_modcache_peer_hits")
		}
		if peerHits == 0 {
			t.Error("peer-warmed topology reported no modcache_peer_hits")
		}
	})

	t.Run("three-shard-failover", func(t *testing.T) {
		shards, rt := startCluster(t, 3, Config{MaxInFlight: 2})
		// Induce one shard failure before any traffic: every request
		// owned by the dead shard must fail over down the ring.
		shards[1].ts.Close()
		h := rt.Handler()
		check(t, h, "failover")
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		body := w.Body.String()
		if !strings.Contains(body, "modsynd_router_failover_total") {
			t.Fatal("router /metrics missing failover counter")
		}
		var failovers int64
		fmt.Sscanf(body[strings.LastIndex(body, "modsynd_router_failover_total"):], "modsynd_router_failover_total %d", &failovers)
		if failovers == 0 {
			t.Error("induced shard failure produced no failovers")
		}
		if !strings.Contains(body, fmt.Sprintf("modsynd_shard_up{shard=%q} 0", shards[1].ts.URL)) {
			t.Error("dead shard still reported up on router /metrics")
		}
	})
}

// TestBatchEndpoint pins POST /v1/batch on one shard: per-entry
// statuses in request order, digests identical to single requests,
// parse failures isolated to their entry.
func TestBatchEndpoint(t *testing.T) {
	names := quickNames()[:3]
	want := libraryDigests(t, names)

	s := newTestServer(t, Config{MaxInFlight: 2})
	h := s.Handler()

	var reqs []string
	for _, n := range names {
		reqs = append(reqs, fmt.Sprintf(`{"bench":%q}`, n))
	}
	reqs = append(reqs, `{"bench":"zzz-no-such"}`) // per-entry 400
	body := fmt.Sprintf(`{"requests":[%s]}`, strings.Join(reqs, ","))

	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var bresp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != len(names)+1 {
		t.Fatalf("got %d responses, want %d", len(bresp.Responses), len(names)+1)
	}
	for i, n := range names {
		e := bresp.Responses[i]
		if e.Status != http.StatusOK {
			t.Fatalf("entry %d status %d: %s", i, e.Status, e.Error)
		}
		if e.Digest != want[n] {
			t.Errorf("entry %d (%s): digest %s != library %s", i, n, e.Digest, want[n])
		}
	}
	if last := bresp.Responses[len(names)]; last.Status != http.StatusBadRequest || last.Class != "parse" {
		t.Errorf("invalid entry: status %d class %q, want 400 parse", last.Status, last.Class)
	}

	// Malformed body and empty batch are whole-request 400s.
	for _, bad := range []string{`{`, `{"requests":[]}`} {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(bad))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, w.Code)
		}
	}
}

// TestBatchThroughRouter pins the router's shard-wise fan-out: a batch
// spanning benchmarks owned by different shards reassembles in request
// order with library-identical digests.
func TestBatchThroughRouter(t *testing.T) {
	names := quickNames()[:6]
	want := libraryDigests(t, names)
	_, rt := startCluster(t, 3, Config{MaxInFlight: 2})
	h := rt.Handler()

	var reqs []string
	for _, n := range names {
		reqs = append(reqs, fmt.Sprintf(`{"bench":%q}`, n))
	}
	reqs = append(reqs, `{"stg":"not an stg"}`)
	body := fmt.Sprintf(`{"requests":[%s]}`, strings.Join(reqs, ","))

	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var bresp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != len(names)+1 {
		t.Fatalf("got %d responses, want %d", len(bresp.Responses), len(names)+1)
	}
	for i, n := range names {
		e := bresp.Responses[i]
		if e.Status != http.StatusOK || e.Digest != want[n] {
			t.Errorf("entry %d (%s): status %d digest %s, want 200 %s", i, n, e.Status, e.Digest, want[n])
		}
	}
	if last := bresp.Responses[len(names)]; last.Status != http.StatusBadRequest {
		t.Errorf("invalid entry status %d, want 400", last.Status)
	}
}

// TestCacheExchangeEndpoints pins the GET/PUT /v1/cache/{key} surface:
// round trip between two shards, 404 on unknown or malformed keys,
// 400 on digest/path mismatch and corrupt records.
func TestCacheExchangeEndpoints(t *testing.T) {
	a := startShard(t, Config{MaxInFlight: 1})
	if _, w := postThrough(t, a.srv.Handler(), "fifo"); w.Code != http.StatusOK {
		t.Fatalf("warm-up status %d", w.Code)
	}
	if a.srv.Cache().Len() == 0 {
		t.Fatal("warm-up stored no cache entries")
	}

	// Find one record digest by probing the shard's own export surface:
	// every stored entry is addressable, so export succeeds for the
	// digest we learn from a peer-style GET of the cache listing — here
	// we reach into the cache via its public Export with a digest taken
	// from a fresh solve on a second shard wired as a peer.
	b := startShard(t, Config{MaxInFlight: 1, Peers: []string{a.ts.URL}})
	if _, w := postThrough(t, b.srv.Handler(), "fifo"); w.Code != http.StatusOK {
		t.Fatalf("peer-warmed solve status %d", w.Code)
	}
	if hits := metricValue(t, b.srv.Handler(), "asyncsyn_modcache_peer_hits"); hits == 0 {
		t.Fatal("shard B answered without pulling from its peer")
	}

	// Unknown and malformed keys answer 404.
	for _, k := range []string{strings.Repeat("0", 64), "not-a-digest", "../../etc/passwd"} {
		resp, err := http.Get(a.ts.URL + "/v1/cache/" + k)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %q: status %d, want 404", k, resp.StatusCode)
		}
	}

	// PUT round trip: encode a synthetic record, push it, read it back.
	key := modcache.Key{Layout: "l", M: 1, Engine: 1, MaxBacktracks: 10, WarmHash: "-"}
	rec, err := modcache.EncodeRecord(key, &modcache.Entry{Signals: 1, Status: 1, Engine: "dpll"})
	if err != nil {
		t.Fatal(err)
	}
	digest := modcache.RecordDigest(key)
	put := func(path string, body string) int {
		req, err := http.NewRequest(http.MethodPut, a.ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("/v1/cache/"+digest, string(rec)); code != http.StatusOK {
		t.Fatalf("PUT status %d, want 200", code)
	}
	if code := put("/v1/cache/"+strings.Repeat("0", 64), string(rec)); code != http.StatusBadRequest {
		t.Errorf("mismatched PUT status %d, want 400", code)
	}
	if code := put("/v1/cache/"+digest, "garbage"); code != http.StatusBadRequest {
		t.Errorf("corrupt PUT status %d, want 400", code)
	}
	resp, err := http.Get(a.ts.URL + "/v1/cache/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT status %d", resp.StatusCode)
	}
	var back struct {
		Key modcache.Key `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Key != key {
		t.Fatalf("round-tripped key %+v != %+v", back.Key, key)
	}
}

// TestRouterJobBroadcast pins async-through-router: the job id minted
// by a shard resolves through the router's broadcast poll.
func TestRouterJobBroadcast(t *testing.T) {
	_, rt := startCluster(t, 3, Config{MaxInFlight: 2})
	h := rt.Handler()

	resp, w := postSynth(t, h, `{"bench":"fifo","async":true}`, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("async POST status %d, want 202", w.Code)
	}
	if resp.Job == "" {
		t.Fatal("no job id through router")
	}
	waitFor(t, func() bool {
		req := httptest.NewRequest("GET", "/v1/jobs/"+resp.Job, nil)
		jw := httptest.NewRecorder()
		h.ServeHTTP(jw, req)
		var jr Response
		if err := json.Unmarshal(jw.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		return jr.Status == "done" && jr.Digest != ""
	})

	req := httptest.NewRequest("GET", "/v1/jobs/nope", nil)
	jw := httptest.NewRecorder()
	h.ServeHTTP(jw, req)
	if jw.Code != http.StatusNotFound {
		t.Fatalf("unknown job via router: status %d, want 404", jw.Code)
	}
}

// TestRouterHealthz pins pool health reporting: healthy pool answers
// 200; with every shard dead the router answers 503 and marks the
// shards down.
func TestRouterHealthz(t *testing.T) {
	shards, rt := startCluster(t, 2, Config{MaxInFlight: 1})
	h := rt.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthy pool: status %d, want 200", w.Code)
	}

	for _, sh := range shards {
		sh.ts.Close()
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead pool: status %d, want 503", w.Code)
	}
}
