package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/rundb"
)

func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s (status %d): %v\n%s", path, w.Code, err, w.Body.String())
		}
	}
	return w
}

// TestRunsAPI drives the daemon's run-history surface end to end: a
// synthesis on a rundb-enabled server reports its signature and run
// id, the run is listable (filtered and paginated) and fetchable, the
// banked digest matches the response digest, and /metrics counts the
// recording.
func TestRunsAPI(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2, RunDBDir: t.TempDir()})
	h := s.Handler()

	resp, w := postThrough(t, h, "fifo")
	if w.Code != http.StatusOK {
		t.Fatalf("synthesize: status %d: %s", w.Code, w.Body.String())
	}
	src, err := bench.Source("fifo")
	if err != nil {
		t.Fatal(err)
	}
	g, err := asyncsyn.ParseSTGString(src)
	if err != nil {
		t.Fatal(err)
	}
	wantSig := rundb.Signature(g.Format())
	if resp.Signature != wantSig {
		t.Fatalf("response signature %s != canonical %s", resp.Signature, wantSig)
	}
	if resp.Run == "" {
		t.Fatal("rundb-enabled synthesis response carries no run id")
	}

	resp2, w := postThrough(t, h, "nak-pa")
	if w.Code != http.StatusOK {
		t.Fatalf("synthesize nak-pa: status %d", w.Code)
	}

	var page RunsResponse
	if w := getJSON(t, h, "/v1/runs", &page); w.Code != http.StatusOK {
		t.Fatalf("/v1/runs status %d", w.Code)
	}
	if page.Total != 2 || len(page.Runs) != 2 {
		t.Fatalf("/v1/runs: total=%d len=%d, want 2/2", page.Total, len(page.Runs))
	}
	// Newest first: nak-pa ran second.
	if page.Runs[0].ID != resp2.Run || page.Runs[1].ID != resp.Run {
		t.Fatalf("/v1/runs order: got %s, %s; want %s, %s",
			page.Runs[0].ID, page.Runs[1].ID, resp2.Run, resp.Run)
	}

	// Signature filter narrows to the fifo run.
	if w := getJSON(t, h, "/v1/runs?signature="+wantSig, &page); w.Code != http.StatusOK {
		t.Fatalf("filtered /v1/runs status %d", w.Code)
	}
	if page.Total != 1 || len(page.Runs) != 1 || page.Runs[0].ID != resp.Run {
		t.Fatalf("signature filter returned %+v", page)
	}
	if page.Runs[0].Digest != resp.Digest {
		t.Fatalf("banked digest %s != response digest %s", page.Runs[0].Digest, resp.Digest)
	}

	// Bench-name filter matches the recorded Bench field.
	if w := getJSON(t, h, "/v1/runs?model=nak-pa", &page); w.Code != http.StatusOK || page.Total != 1 {
		t.Fatalf("model filter: status %d total %d", w.Code, page.Total)
	}

	// Pagination: limit=1 windows the newest, offset=1 the next.
	if getJSON(t, h, "/v1/runs?limit=1", &page); page.Total != 2 || len(page.Runs) != 1 || page.Runs[0].ID != resp2.Run {
		t.Fatalf("limit=1 page: %+v", page)
	}
	if getJSON(t, h, "/v1/runs?limit=1&offset=1", &page); len(page.Runs) != 1 || page.Runs[0].ID != resp.Run {
		t.Fatalf("offset=1 page: %+v", page)
	}
	if w := getJSON(t, h, "/v1/runs?limit=bogus", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bogus limit answered %d, want 400", w.Code)
	}

	// The full record by id carries the payload the summary omits.
	var rec rundb.Record
	if w := getJSON(t, h, "/v1/runs/"+resp.Run, &rec); w.Code != http.StatusOK {
		t.Fatalf("/v1/runs/{id} status %d", w.Code)
	}
	if rec.Digest != resp.Digest || rec.Signature != wantSig || len(rec.Functions) == 0 {
		t.Fatalf("full record mismatch: %+v", rec)
	}
	if w := getJSON(t, h, "/v1/runs/r999999-nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown run answered %d, want 404", w.Code)
	}

	if n := metricValue(t, h, "modsynd_runs_recorded_total"); n != 2 {
		t.Fatalf("modsynd_runs_recorded_total = %d, want 2", n)
	}
	if n := metricValue(t, h, "modsynd_run_divergences_total"); n != 0 {
		t.Fatalf("modsynd_run_divergences_total = %d, want 0", n)
	}
}

// TestRunOptionsHashNormalized: a request that spells the default
// backtrack budget out is the same run as one that leaves it out, so
// both record the default options hash.
func TestRunOptionsHashNormalized(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, RunDBDir: t.TempDir()})
	h := s.Handler()
	want, err := rundb.OptionsOf(asyncsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"bench":"fifo"}`, `{"bench":"fifo","max_backtracks":2000000}`} {
		resp, w := postSynth(t, h, body, "")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		var rec rundb.Record
		if w := getJSON(t, h, "/v1/runs/"+resp.Run, &rec); w.Code != http.StatusOK {
			t.Fatalf("%s: /v1/runs/%s status %d", body, resp.Run, w.Code)
		}
		if rec.OptionsHash != want.Hash() {
			t.Errorf("%s: options hash %s, want the default %s", body, rec.OptionsHash, want.Hash())
		}
	}
}

// TestRunsDisabled pins the no-database contract: both endpoints
// answer 503 rundb_disabled, and synthesis responses carry a signature
// but no run id.
func TestRunsDisabled(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	h := s.Handler()

	var resp Response
	if w := getJSON(t, h, "/v1/runs", &resp); w.Code != http.StatusServiceUnavailable || resp.Class != "rundb_disabled" {
		t.Fatalf("/v1/runs without a database: status %d class %q", w.Code, resp.Class)
	}
	if w := getJSON(t, h, "/v1/runs/r000001-x", &resp); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/runs/{id} without a database: status %d", w.Code)
	}

	sresp, w := postThrough(t, h, "fifo")
	if w.Code != http.StatusOK {
		t.Fatalf("synthesize: status %d", w.Code)
	}
	if sresp.Signature == "" {
		t.Fatal("signature missing from response without a run database")
	}
	if sresp.Run != "" {
		t.Fatalf("run id %q reported without a run database", sresp.Run)
	}
}

// TestRunHistorySurvivesRestart pins persistence: a new server over
// the same directory serves the previous server's history.
func TestRunHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{MaxInFlight: 1, RunDBDir: dir})
	resp, w := postThrough(t, s1.Handler(), "fifo")
	if w.Code != http.StatusOK {
		t.Fatalf("synthesize: status %d", w.Code)
	}

	s2 := newTestServer(t, Config{MaxInFlight: 1, RunDBDir: dir})
	var page RunsResponse
	if w := getJSON(t, s2.Handler(), "/v1/runs", &page); w.Code != http.StatusOK {
		t.Fatalf("/v1/runs after restart: status %d", w.Code)
	}
	if page.Total != 1 || page.Runs[0].ID != resp.Run {
		t.Fatalf("history lost across restart: %+v", page)
	}
	var rec rundb.Record
	if w := getJSON(t, s2.Handler(), "/v1/runs/"+resp.Run, &rec); w.Code != http.StatusOK || rec.Digest != resp.Digest {
		t.Fatalf("record fetch after restart: status %d digest %s want %s", w.Code, rec.Digest, resp.Digest)
	}
}

// TestRouterRunsMerge drives the router's cluster view: runs recorded
// on separate shards merge into one newest-first page, and
// /v1/runs/{id} finds the owning shard by broadcast.
func TestRouterRunsMerge(t *testing.T) {
	shardA := startShard(t, Config{MaxInFlight: 1, RunDBDir: t.TempDir()})
	shardB := startShard(t, Config{MaxInFlight: 1, RunDBDir: t.TempDir()})
	rt, err := NewRouter(RouterConfig{Shards: []string{shardA.ts.URL, shardB.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// Route enough distinct problems through the router that both
	// shards own at least one (the quick set spreads over the ring).
	names := quickNames()
	ids := make(map[string]string, len(names))
	for _, name := range names {
		resp, w := postThrough(t, h, name)
		if w.Code != http.StatusOK {
			t.Fatalf("%s through router: status %d", name, w.Code)
		}
		if resp.Run == "" {
			t.Fatalf("%s through router: no run id", name)
		}
		ids[name] = resp.Run
	}

	var page RunsResponse
	if w := getJSON(t, h, fmt.Sprintf("/v1/runs?limit=%d", len(names)), &page); w.Code != http.StatusOK {
		t.Fatalf("router /v1/runs: status %d", w.Code)
	}
	if page.Total != len(names) || len(page.Runs) != len(names) {
		t.Fatalf("router merge: total=%d len=%d, want %d", page.Total, len(page.Runs), len(names))
	}
	for i := 1; i < len(page.Runs); i++ {
		if page.Runs[i-1].UnixMS < page.Runs[i].UnixMS {
			t.Fatalf("merged page not newest-first at %d", i)
		}
	}

	// Every run resolves through the broadcast, whichever shard owns it.
	for name, id := range ids {
		var rec rundb.Record
		if w := getJSON(t, h, "/v1/runs/"+id, &rec); w.Code != http.StatusOK {
			t.Fatalf("router /v1/runs/%s (%s): status %d", id, name, w.Code)
		}
		if rec.Bench != name {
			t.Fatalf("run %s: bench %q, want %q", id, rec.Bench, name)
		}
	}
	if w := getJSON(t, h, "/v1/runs/r999999-nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("router unknown run: status %d, want 404", w.Code)
	}
}
