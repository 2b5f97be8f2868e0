package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncsyn"
	"asyncsyn/internal/bench"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postSynth(t *testing.T, h http.Handler, body string, query string) (*Response, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/synthesize"+query, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON (status %d): %v\n%s", w.Code, err, w.Body.String())
	}
	return &resp, w
}

// quickNames is the small Table 1 subset (the bench suite's -quick
// selection): every benchmark whose paper initial state count is ≤ 100.
func quickNames() []string {
	var names []string
	for _, e := range bench.Table1 {
		if e.InitialStates <= 100 {
			names = append(names, e.Name)
		}
	}
	return names
}

func metricValue(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(w.Body.String())
	if m == nil {
		t.Fatalf("metric %s not found in /metrics output", name)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDigestParityAndWarmCache is the tentpole acceptance test: a warm
// daemon run of the quick benchmark set returns circuits bit-identical
// (same determinism digests) to the direct library path, and the warm
// pass reports modcache_hits > 0 on /metrics.
func TestDigestParityAndWarmCache(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	h := s.Handler()

	names := quickNames()
	if len(names) == 0 {
		t.Fatal("empty quick set")
	}
	// Direct library path: per-benchmark digests of uncached runs, the
	// reference the HTTP responses must reproduce bit for bit.
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

	for pass := 1; pass <= 2; pass++ {
		for _, name := range names {
			resp, w := postSynth(t, h, fmt.Sprintf(`{"bench":%q}`, name), "")
			if w.Code != http.StatusOK {
				t.Fatalf("pass %d %s: status %d: %s", pass, name, w.Code, w.Body.String())
			}
			if resp.Digest != want[name] {
				t.Errorf("pass %d %s: HTTP digest %s != library digest %s", pass, name, resp.Digest, want[name])
			}
		}
	}
	if hits := metricValue(t, h, "asyncsyn_modcache_hits"); hits == 0 {
		t.Error("warm pass reported no modcache_hits on /metrics")
	}
	if admitted := metricValue(t, h, "modsynd_admitted_total"); admitted != int64(2*len(names)) {
		t.Errorf("admitted_total = %d, want %d", admitted, 2*len(names))
	}
}

// blockingRun substitutes Server.run with a stub that blocks until
// released, so admission/dedup/drain mechanics are pinned without
// real synthesis timing.
type blockingRun struct {
	mu      sync.Mutex
	started chan string   // receives a job key when a run begins
	release chan struct{} // close to let every run finish
	runs    int
}

func newBlockingRun() *blockingRun {
	return &blockingRun{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRun) run(ctx context.Context, j *job) (*Response, int) {
	b.mu.Lock()
	b.runs++
	b.mu.Unlock()
	b.started <- j.key
	select {
	case <-b.release:
		return &Response{Model: "stub", Digest: "stub-" + j.key}, http.StatusOK
	case <-ctx.Done():
		return errorResponse(asyncsyn.ErrCanceled), 499
	}
}

func (b *blockingRun) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

const stubSTG = `{"stg":".model m\n.outputs b\n.graph\nb+ b-\nb- b+\n.marking { <b-,b+> }\n.end"}`

// distinct request bodies: vary workers so content keys differ.
func stubReq(i int) string {
	return fmt.Sprintf(`{"workers":%d,"stg":".model m\n.outputs b\n.graph\nb+ b-\nb- b+\n.marking { <b-,b+> }\n.end"}`, i+1)
}

// TestOverloadReturns429 pins admission control: with one slot and no
// queue, a second distinct request is rejected with 429 and a
// Retry-After header instead of queueing unboundedly.
func TestOverloadReturns429(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true, RetryAfter: 2 * time.Second})
	b := newBlockingRun()
	s.run = b.run
	h := s.Handler()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		_, w := postSynth(t, h, stubReq(0), "")
		done <- w
	}()
	<-b.started // first job occupies the only slot

	resp, w := postSynth(t, h, stubReq(1), "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if resp.Class != "overload" {
		t.Errorf("class = %q, want overload", resp.Class)
	}

	close(b.release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", w.Code)
	}
	if rej := metricValue(t, h, "modsynd_rejected_total"); rej != 1 {
		t.Errorf("rejected_total = %d, want 1", rej)
	}
}

// TestQueueAdmitsThenRejects pins the queue bound: MaxInFlight=1 and
// QueueDepth=1 admit two jobs (one running, one queued); the third is
// rejected.
func TestQueueAdmitsThenRejects(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1})
	b := newBlockingRun()
	s.run = b.run
	h := s.Handler()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, w := postSynth(t, h, stubReq(i), "")
			codes[i] = w.Code
		}(i)
	}
	<-b.started // one running; wait until the other is queued
	waitFor(t, func() bool { return s.stats.queued.Load() == 1 })

	_, w := postSynth(t, h, stubReq(2), "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", w.Code)
	}

	close(b.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d status = %d, want 200", i, c)
		}
	}
}

// TestDedupSharesOneRun pins singleflight: identical concurrent
// requests run once; the joiner's response is flagged deduped.
func TestDedupSharesOneRun(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 4})
	b := newBlockingRun()
	s.run = b.run
	h := s.Handler()

	type out struct {
		resp *Response
		code int
	}
	results := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, w := postSynth(t, h, stubSTG, "")
			results <- out{resp, w.Code}
		}()
		if i == 0 {
			<-b.started // ensure the first is in flight before the second posts
		}
	}
	waitFor(t, func() bool { return s.stats.deduped.Load() == 1 })
	close(b.release)

	var deduped int
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d, want 200", r.code)
		}
		if r.resp.Deduped {
			deduped++
		}
	}
	if deduped != 1 {
		t.Errorf("deduped responses = %d, want 1", deduped)
	}
	if b.count() != 1 {
		t.Errorf("runs = %d, want 1", b.count())
	}
	if d := metricValue(t, h, "modsynd_deduped_total"); d != 1 {
		t.Errorf("deduped_total = %d, want 1", d)
	}
}

// TestShutdownDrains pins graceful shutdown: admission stops (503 on
// new work and on healthz), Shutdown blocks until the in-flight job
// finishes, and the job's waiter still receives its 200.
func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	b := newBlockingRun()
	s.run = b.run
	h := s.Handler()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		_, w := postSynth(t, h, stubReq(0), "")
		done <- w
	}()
	<-b.started

	shutdownDone := make(chan error, 1)
	go func() {
		shutdownDone <- s.Shutdown(context.Background())
	}()
	waitFor(t, func() bool { return s.draining() })

	// New work and liveness answer 503 while draining.
	if _, w := postSynth(t, h, stubReq(1), ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", w.Code)
	}
	hw := httptest.NewRecorder()
	h.ServeHTTP(hw, httptest.NewRequest("GET", "/healthz", nil))
	if hw.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hw.Code)
	}

	// Shutdown must not complete while the job is still running.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(b.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("drained job status = %d, want 200", w.Code)
	}
}

// TestShutdownForcedCancel pins the drain deadline: a job that never
// finishes is canceled through the base context and Shutdown returns
// the deadline error.
func TestShutdownForcedCancel(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	b := newBlockingRun() // never released
	s.run = b.run
	h := s.Handler()

	go func() {
		req := httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(stubReq(0)))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-b.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
}

// TestStatusMapping exercises the HTTP error paths end to end.
func TestStatusMapping(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	h := s.Handler()
	cases := []struct {
		name  string
		body  string
		code  int
		class string
	}{
		{"bad-json", `{`, http.StatusBadRequest, "parse"},
		{"unknown-field", `{"nope":1}`, http.StatusBadRequest, "parse"},
		{"no-spec", `{}`, http.StatusBadRequest, "parse"},
		{"both-specs", `{"stg":"x","bench":"fifo"}`, http.StatusBadRequest, "parse"},
		{"unknown-bench", `{"bench":"zzz"}`, http.StatusBadRequest, "parse"},
		{"bad-stg", `{"stg":".model m\ngarbage"}`, http.StatusBadRequest, "parse"},
		{"bad-method", `{"bench":"fifo","method":"magic"}`, http.StatusBadRequest, "parse"},
		{"bad-engine", `{"bench":"fifo","engine":"oracle"}`, http.StatusBadRequest, "parse"},
		{"bad-timeout", `{"bench":"fifo","timeout":"soon"}`, http.StatusBadRequest, "parse"},
		{"negative-budget", `{"bench":"fifo","max_backtracks":-1}`, http.StatusBadRequest, "parse"},
		{"retired-engine-walksat", `{"bench":"fifo","engine":"walksat"}`, http.StatusBadRequest, "parse"},
		{"retired-engine-portfolio", `{"bench":"fifo","engine":"portfolio"}`, http.StatusBadRequest, "parse"},
		{"removed-field-engine", `{"bench":"fifo","engine":"dpll"}`, http.StatusBadRequest, "parse"},
		{"removed-field-full-support", `{"bench":"fifo","full_support":true}`, http.StatusBadRequest, "parse"},
		{"removed-field-exact-minimize", `{"bench":"fifo","exact_minimize":true}`, http.StatusBadRequest, "parse"},
		{"budget", `{"bench":"fifo","max_backtracks":1}`, http.StatusUnprocessableEntity, "unsolvable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, w := postSynth(t, h, tc.body, "")
			if w.Code != tc.code {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.code, w.Body.String())
			}
			if resp.Class != tc.class {
				t.Errorf("class = %q, want %q", resp.Class, tc.class)
			}
		})
	}
}

// TestTimeoutReturns408 pins the per-request deadline: an
// unrealistically small timeout classifies as timeout (408).
func TestTimeoutReturns408(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	h := s.Handler()
	resp, w := postSynth(t, h, `{"bench":"mr0","timeout":"1ns"}`, "")
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (%s)", w.Code, w.Body.String())
	}
	if resp.Class != "timeout" {
		t.Errorf("class = %q, want timeout", resp.Class)
	}
}

// TestAsyncJobLifecycle pins the async path: 202 with a job id, poll
// to completion, full result with digest.
func TestAsyncJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	h := s.Handler()

	resp, w := postSynth(t, h, `{"bench":"fifo","async":true}`, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("async POST status = %d, want 202", w.Code)
	}
	if resp.Job == "" {
		t.Fatal("async POST returned no job id")
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		req := httptest.NewRequest("GET", "/v1/jobs/"+resp.Job, nil)
		jw := httptest.NewRecorder()
		h.ServeHTTP(jw, req)
		var jr Response
		if err := json.Unmarshal(jw.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Status == "done" {
			if jw.Code != http.StatusOK {
				t.Fatalf("done job status = %d, want 200", jw.Code)
			}
			if jr.Digest == "" || jr.Model != "fifo" {
				t.Fatalf("incomplete async result: %+v", jr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unknown job id answers 404.
	req := httptest.NewRequest("GET", "/v1/jobs/nope", nil)
	jw := httptest.NewRecorder()
	h.ServeHTTP(jw, req)
	if jw.Code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", jw.Code)
	}
}

// TestTraceSection pins ?trace=1: the response carries the run's
// JSON-lines events, absent otherwise.
func TestTraceSection(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	h := s.Handler()

	resp, w := postSynth(t, h, `{"bench":"fifo"}`, "?trace=1")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", w.Code, w.Body.String())
	}
	if len(resp.Trace) == 0 {
		t.Fatal("?trace=1 returned no trace events")
	}
	var ev struct {
		Type  string `json:"type"`
		Stage string `json:"stage"`
	}
	if err := json.Unmarshal(resp.Trace[0], &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "stage_start" {
		t.Errorf("first trace event type = %q, want stage_start", ev.Type)
	}

	resp, _ = postSynth(t, h, `{"bench":"fifo"}`, "")
	if len(resp.Trace) != 0 {
		t.Error("untraced request returned trace events")
	}
}

// TestDiskCacheWarmRestart pins that a -cachedir daemon restart stays
// warm: a fresh server over the same directory answers with cache hits
// and identical digests.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{MaxInFlight: 1, CacheDir: dir})
	resp1, w1 := postSynth(t, s1.Handler(), `{"bench":"fifo"}`, "")
	if w1.Code != http.StatusOK {
		t.Fatalf("cold status %d", w1.Code)
	}

	s2 := newTestServer(t, Config{MaxInFlight: 1, CacheDir: dir})
	h2 := s2.Handler()
	resp2, w2 := postSynth(t, h2, `{"bench":"fifo"}`, "")
	if w2.Code != http.StatusOK {
		t.Fatalf("warm status %d", w2.Code)
	}
	if resp1.Digest != resp2.Digest {
		t.Errorf("digest drifted across restart: %s != %s", resp1.Digest, resp2.Digest)
	}
	if hits := metricValue(t, h2, "asyncsyn_modcache_hits"); hits == 0 {
		t.Error("restarted daemon answered without disk-cache hits")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
