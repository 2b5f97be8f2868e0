package server

import (
	"net/http"
	"strconv"
	"time"

	"asyncsyn/internal/rundb"
)

// RunSummary is one GET /v1/runs list entry: the record identity plus
// the headline outcome, without the heavyweight payload (equations,
// counters, stage timings) — fetch GET /v1/runs/{id} for those.
type RunSummary struct {
	ID          string `json:"id"`
	Signature   string `json:"signature"`
	OptionsHash string `json:"options_hash"`
	Model       string `json:"model"`
	Bench       string `json:"bench,omitempty"`
	File        string `json:"file,omitempty"`
	Digest      string `json:"digest,omitempty"`
	Aborted     bool   `json:"aborted,omitempty"`
	Divergent   bool   `json:"divergent,omitempty"`

	Area   int     `json:"area"`
	CPUMS  float64 `json:"cpu_ms"`
	UnixMS int64   `json:"unix_ms"`
}

// RunsResponse is the GET /v1/runs page: Total counts every record
// matching the filter, Runs is the requested window of it, newest
// first.
type RunsResponse struct {
	Total  int          `json:"total"`
	Offset int          `json:"offset"`
	Limit  int          `json:"limit"`
	Runs   []RunSummary `json:"runs"`
}

func summarize(rec *rundb.Record) RunSummary {
	return RunSummary{
		ID:          rec.ID,
		Signature:   rec.Signature,
		OptionsHash: rec.OptionsHash,
		Model:       rec.Model,
		Bench:       rec.Bench,
		File:        rec.File,
		Digest:      rec.Digest,
		Aborted:     rec.Aborted,
		Divergent:   rec.Divergent,
		Area:        rec.Area,
		CPUMS:       rec.CPUMS,
		UnixMS:      rec.UnixMS,
	}
}

// rundbDisabled answers 503 when the daemon runs without a run
// database (no -rundb flag).
func (s *Server) rundbDisabled(w http.ResponseWriter, start time.Time) bool {
	if s.rundb != nil {
		return false
	}
	s.writeJSON(w, http.StatusServiceUnavailable, &Response{
		Error: "run database disabled", Class: "rundb_disabled",
	}, start)
	return true
}

// handleRuns is GET /v1/runs: the run history, newest first, filtered
// by ?signature= (exact canonical problem signature) and ?model=
// (model name, embedded benchmark name or project file), paginated by
// ?offset= and ?limit=.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.rundbDisabled(w, start) {
		return
	}
	q := r.URL.Query()
	f := rundb.Filter{
		Signature: q.Get("signature"),
		Model:     q.Get("model"),
	}
	if f.Model == "" {
		f.Model = q.Get("bench")
	}
	var err error
	if f.Offset, err = queryInt(q.Get("offset"), 0); err != nil {
		s.writeJSON(w, http.StatusBadRequest, &Response{
			Error: "offset: " + err.Error(), Class: "parse",
		}, start)
		return
	}
	if f.Limit, err = queryInt(q.Get("limit"), 0); err != nil {
		s.writeJSON(w, http.StatusBadRequest, &Response{
			Error: "limit: " + err.Error(), Class: "parse",
		}, start)
		return
	}
	page, total := s.rundb.List(f)
	out := &RunsResponse{
		Total: total, Offset: f.Offset, Limit: f.Limit,
		Runs: make([]RunSummary, 0, len(page)),
	}
	if out.Limit <= 0 {
		out.Limit = rundb.DefaultLimit
	}
	if out.Limit > rundb.MaxLimit {
		out.Limit = rundb.MaxLimit
	}
	for _, rec := range page {
		out.Runs = append(out.Runs, summarize(rec))
	}
	s.writeJSON(w, http.StatusOK, out, start)
}

// handleRun is GET /v1/runs/{id}: the full history record — equations,
// counters, per-stage timings and all.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.rundbDisabled(w, start) {
		return
	}
	rec, ok := s.rundb.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, &Response{
			Error: "no such run", Class: "not_found",
		}, start)
		return
	}
	s.writeJSON(w, http.StatusOK, rec, start)
}

// queryInt parses a non-negative integer query parameter, empty
// meaning def.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		n = 0
	}
	return n, nil
}
