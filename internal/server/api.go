package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/rundb"
	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

// maxBody bounds a request body; .g sources are tiny, so 16 MiB is
// generous headroom for generated STGs.
const maxBody = 16 << 20

// Request is the POST /v1/synthesize body. Exactly one of STG (a ".g"
// source) or Bench (an embedded Table 1 benchmark name) selects the
// specification; the remaining fields mirror asyncsyn.Options.
type Request struct {
	STG   string `json:"stg,omitempty"`
	Bench string `json:"bench,omitempty"`

	Method        string `json:"method,omitempty"`  // modular|direct|lavagno
	Engine        string `json:"engine,omitempty"`  // dpll|bdd
	Workers       int    `json:"workers,omitempty"` // per-job logic-derivation pool bound
	Timeout       string `json:"timeout,omitempty"` // Go duration, capped by MaxTimeout
	MaxBacktracks int64  `json:"max_backtracks,omitempty"`
	ExpandXor     bool   `json:"expand_xor,omitempty"`

	// Async makes the POST return 202 with a job id immediately; poll
	// GET /v1/jobs/{id} for the result. Not part of the dedup key.
	Async bool `json:"async,omitempty"`
}

// FunctionJSON is one synthesized next-state function.
type FunctionJSON struct {
	Name     string   `json:"name"`
	Inputs   []string `json:"inputs"`
	SOP      string   `json:"sop"`
	Literals int      `json:"literals"`
}

// ModuleJSON is one per-output modular pass report.
type ModuleJSON struct {
	Output       string   `json:"output"`
	InputSet     []string `json:"input_set"`
	MergedStates int      `json:"merged_states"`
	Conflicts    int      `json:"conflicts"`
	NewSignals   int      `json:"new_signals"`
	Widened      bool     `json:"widened,omitempty"`
}

// StageJSON is one pipeline stage timing.
type StageJSON struct {
	Name     string           `json:"name"`
	MS       float64          `json:"ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Response is the synthesis result (or failure) envelope. Error
// outcomes carry Error/Class and whatever partial statistics exist; a
// budget abort (HTTP 422) still reports the full partial circuit.
type Response struct {
	Job    string `json:"job,omitempty"`    // async handle
	Status string `json:"status,omitempty"` // queued|running|done (async)

	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"` // synerr.Class wire name

	Model   string `json:"model,omitempty"`
	Method  string `json:"method,omitempty"`
	Aborted bool   `json:"aborted,omitempty"`

	InitialStates  int `json:"initial_states,omitempty"`
	InitialSignals int `json:"initial_signals,omitempty"`
	FinalStates    int `json:"final_states,omitempty"`
	FinalSignals   int `json:"final_signals,omitempty"`
	StateSignals   int `json:"state_signals,omitempty"`
	Area           int `json:"area,omitempty"`

	CPUMS  float64 `json:"cpu_ms,omitempty"`
	Digest string  `json:"digest,omitempty"`
	// Signature is the canonical problem signature: the hex SHA-256 of
	// the canonical rendering of the parsed STG (the cluster routing
	// key and the rundb content hash). Clients correlate synthesize and
	// job responses with GET /v1/runs?signature=... through it without
	// re-deriving anything.
	Signature string `json:"signature,omitempty"`
	// Run is the id of the run-history record this synthesis produced
	// (GET /v1/runs/{id}); present only when the daemon has a run
	// database configured.
	Run string `json:"run,omitempty"`
	// Deduped reports that this response was served by joining an
	// identical concurrent request's run.
	Deduped bool `json:"deduped,omitempty"`

	Functions []FunctionJSON   `json:"functions,omitempty"`
	Modules   []ModuleJSON     `json:"modules,omitempty"`
	Stages    []StageJSON      `json:"stages,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`

	// Trace is the run's JSON-lines trace (?trace=1), one event object
	// per element, in emission order.
	Trace []json.RawMessage `json:"trace,omitempty"`
}

// parsedRequest is a validated request ready for admission; the job
// it admits carries it.
type parsedRequest struct {
	key   string // content hash of (STG text, options, trace)
	stg   *asyncsyn.STG
	canon string // canonical rendering (stg.Format of the parse)
	sig   string // canonical problem signature (rundb.Signature of canon)
	bench string // embedded benchmark name, when the request used one
	opts  asyncsyn.Options
	okey  rundb.OptionsKey // canonical solver-visible options of opts
	trace bool
	async bool
}

// parseRequest validates the body and resolves it to library options.
// All failures are ClassParse (400).
func (s *Server) parseRequest(r *http.Request) (*parsedRequest, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, synerr.Parse(fmt.Errorf("request body: %w", err))
	}
	return s.resolveRequest(req, r.URL.Query().Get("trace") == "1")
}

// resolveRequest validates one decoded Request and resolves it to
// library options; shared by the single and batch endpoints. All
// failures are ClassParse (400).
func (s *Server) resolveRequest(req Request, wantTrace bool) (*parsedRequest, error) {
	src := req.STG
	switch {
	case req.STG != "" && req.Bench != "":
		return nil, synerr.Parse(fmt.Errorf(`"stg" and "bench" are mutually exclusive`))
	case req.Bench != "":
		b, err := bench.Source(req.Bench)
		if err != nil {
			return nil, synerr.Parse(err)
		}
		src = b
	case req.STG == "":
		return nil, synerr.Parse(fmt.Errorf(`one of "stg" or "bench" is required`))
	}

	g, err := asyncsyn.ParseSTGString(src)
	if err != nil {
		return nil, err // already matches ErrParse
	}
	if err := g.Validate(); err != nil {
		return nil, synerr.Parse(err)
	}

	method, err := asyncsyn.ParseMethod(req.Method)
	if err != nil {
		return nil, synerr.Parse(err)
	}
	engine, err := asyncsyn.ParseEngine(req.Engine)
	if err != nil {
		return nil, synerr.Parse(err)
	}
	timeout := s.cfg.DefaultTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return nil, synerr.Parse(fmt.Errorf("bad timeout %q", req.Timeout))
		}
		timeout = d
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}

	p := &parsedRequest{
		stg:   g,
		canon: g.Format(),
		bench: req.Bench,
		opts: asyncsyn.Options{
			Method:        method,
			Engine:        engine,
			Workers:       workers,
			Timeout:       timeout,
			MaxBacktracks: req.MaxBacktracks,
			ExpandXor:     req.ExpandXor,
		},
		trace: wantTrace,
		async: req.Async,
	}
	if p.okey, err = rundb.OptionsOf(p.opts); err != nil {
		return nil, err // matches ErrParse
	}
	p.key = contentKey(src, p.okey.Hash(), p.opts, p.trace)
	p.sig = rundb.Signature(p.canon)
	return p, nil
}

// contentKey hashes everything a run's outcome (including its trace
// section) depends on, so only truly identical concurrent requests
// share a job: the source, the canonical options hash, and the knobs
// that shape the response but not the circuit.
func contentKey(src, optionsHash string, opt asyncsyn.Options, wantTrace bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%v\x00%v\x00", src, optionsHash, opt.Workers, opt.Timeout, wantTrace)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// synthesize executes one job through the facade against the shared
// cache and collector; this is the production value of Server.run.
func (s *Server) synthesize(ctx context.Context, j *job) (*Response, int) {
	opts := j.opts
	opts.Cache = s.cache
	opts.Metrics = s.collector
	var buf *trace.BufferTracer
	if j.trace {
		buf = trace.NewBuffer()
		opts.Tracer = buf
	}
	c, err := asyncsyn.SynthesizeContext(ctx, j.stg, opts)
	resp, status := buildResponse(c, err)
	resp.Signature = j.sig
	if buf != nil {
		resp.Trace = buf.Events()
	}
	if s.rundb != nil && c != nil && err == nil {
		resp.Run = s.recordRun(c, j)
	}
	return resp, status
}

// recordRun banks one completed synthesis in the run database and
// returns the record id (empty when the write failed — history is
// best-effort, the response is not). A digest that diverged from the
// banked record under an unchanged key is a determinism regression:
// it stays flagged on the record and bumps the divergence counter so
// a scrape catches it the moment it appears.
func (s *Server) recordRun(c *asyncsyn.Circuit, j *job) string {
	rec := rundb.RecordOf(c, j.canon, j.okey)
	rec.Bench = j.bench
	if _, err := s.rundb.Record(rec); err != nil {
		return ""
	}
	s.stats.runsRecorded.Add(1)
	if rec.Divergent {
		s.stats.runDivergences.Add(1)
	}
	return rec.ID
}

// buildResponse maps a facade outcome to the wire: errors classify
// through synerr.ClassOf; a budget abort (Circuit.Aborted) answers 422
// with the partial statistics, mirroring the paper's Table 1 rows that
// print aborted runs.
func buildResponse(c *asyncsyn.Circuit, err error) (*Response, int) {
	resp := &Response{}
	status := http.StatusOK
	if err != nil {
		class := synerr.ClassOf(err)
		resp.Error, resp.Class = err.Error(), class.String()
		status = class.HTTPStatus()
	}
	if c == nil {
		return resp, status
	}
	if err == nil && c.Aborted {
		resp.Error = asyncsyn.ErrBacktrackLimit.Error()
		resp.Class = synerr.ClassUnsolvable.String()
		status = synerr.ClassUnsolvable.HTTPStatus()
	}
	resp.Model, resp.Method = c.Name, c.Method.String()
	resp.Aborted = c.Aborted
	resp.InitialStates, resp.InitialSignals = c.InitialStates, c.InitialSignals
	resp.FinalStates, resp.FinalSignals = c.FinalStates, c.FinalSignals
	resp.StateSignals, resp.Area = c.StateSignals, c.Area
	resp.CPUMS = float64(c.CPU) / float64(time.Millisecond)
	resp.Counters = c.Counters
	if !c.Aborted && err == nil {
		resp.Digest = c.Digest()
	}
	for _, f := range c.Functions {
		resp.Functions = append(resp.Functions, FunctionJSON{
			Name: f.Name, Inputs: f.Inputs, SOP: f.SOP(), Literals: f.Literals(),
		})
	}
	for _, m := range c.Modules {
		resp.Modules = append(resp.Modules, ModuleJSON{
			Output: m.Output, InputSet: m.InputSet, MergedStates: m.MergedStates,
			Conflicts: m.Conflicts, NewSignals: m.NewSignals, Widened: m.Widened,
		})
	}
	for _, st := range c.Stages {
		resp.Stages = append(resp.Stages, StageJSON{
			Name: st.Name, MS: float64(st.Duration) / float64(time.Millisecond),
			Counters: st.Counters,
		})
	}
	return resp, status
}

// errorResponse wraps a bare error for the wire.
func errorResponse(err error) *Response {
	class := synerr.ClassOf(err)
	return &Response{Error: err.Error(), Class: class.String()}
}

// handleSynthesize is POST /v1/synthesize.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.parseRequest(r)
	if err != nil {
		class := synerr.ClassOf(err)
		s.writeJSON(w, class.HTTPStatus(), errorResponse(err), start)
		return
	}

	j, deduped, status := s.admit(req)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.writeJSON(w, status, &Response{
			Error: "synthesis queue full", Class: "overload",
		}, start)
		return
	case http.StatusServiceUnavailable:
		s.writeJSON(w, status, &Response{
			Error: "daemon is draining", Class: "draining",
		}, start)
		return
	}

	if req.async {
		s.writeJSON(w, http.StatusAccepted, &Response{
			Job: j.id, Status: j.getState().String(), Deduped: deduped,
			Signature: j.sig,
		}, start)
		return
	}

	resp, status, werr := j.wait(r.Context())
	if werr != nil {
		// The client went away; the shared run continues for other
		// waiters and the cache. 499 is recorded, nothing useful can be
		// written.
		s.record(synerr.StatusClientClosed, start)
		return
	}
	out := *resp // shallow copy so shared waiters don't race on Deduped
	out.Deduped = deduped
	s.writeJSON(w, status, &out, start)
}

// handleJob is GET /v1/jobs/{id}: 202 with queued/running while the
// job is live, the job's own outcome status with the full response
// once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, &Response{
			Error: "no such job", Class: "not_found",
		}, start)
		return
	}
	if st := j.getState(); st != jobDone {
		s.writeJSON(w, http.StatusAccepted, &Response{Job: j.id, Status: st.String(), Signature: j.sig}, start)
		return
	}
	resp, status := j.outcome()
	out := *resp
	out.Job, out.Status = j.id, jobDone.String()
	s.writeJSON(w, status, &out, start)
}

// handleBenchmarks is GET /v1/benchmarks: the embedded benchmark names
// accepted by Request.Bench.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.writeJSON(w, http.StatusOK, map[string][]string{"benchmarks": bench.Available()}, start)
}

// writeJSON emits one response and records its status and latency.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
	s.record(status, start)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
