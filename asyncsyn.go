// Package asyncsyn synthesizes speed-independent asynchronous control
// circuits from Signal Transition Graph (STG) specifications.
//
// It implements the modular partitioning synthesis method of Puri and Gu
// (DAC 1994): the STG's state graph is partitioned, per output signal,
// into a small modular state graph; complete state coding (CSC) is
// enforced on each module by solving a small boolean satisfiability
// formula; and the resulting state-signal assignments are propagated back
// and integrated into one circuit. Two reference methods are included for
// comparison — the direct whole-graph SAT formulation of Vanbekbergen et
// al. and a Lavagno-Moon-style iterative state-assignment flow — together
// with a two-level logic minimizer that reports implementation area as
// the literal count of prime-irredundant covers.
//
// Typical use:
//
//	g, err := asyncsyn.ParseSTGString(src)
//	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{})
//	for _, f := range c.Functions {
//	    fmt.Println(f)
//	}
package asyncsyn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"asyncsyn/internal/benchrec"
	"asyncsyn/internal/core"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/dot"
	"asyncsyn/internal/lavagno"
	"asyncsyn/internal/logic"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/pipeline"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

// Error taxonomy. Every failure mode of the pipeline is identified by
// one of these sentinels, testable with errors.Is regardless of how many
// layers of context wrapping the error accumulated on the way up.
var (
	// ErrCanceled reports that the run was stopped by its context
	// (cancellation or Options.Timeout). Errors matching ErrCanceled
	// also match the underlying context error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCanceled = synerr.ErrCanceled
	// ErrBacktrackLimit reports a SAT backtrack budget exhausted before a
	// verdict — the paper's "SAT Backtrack Limit" table entries. The
	// Synthesize facade maps it to Circuit.Aborted instead of an error.
	ErrBacktrackLimit = synerr.ErrBacktrackLimit
	// ErrStateLimit reports that reachability exceeded Options.MaxStates.
	ErrStateLimit = synerr.ErrStateLimit
	// ErrModuleUnsolvable reports a modular graph whose CSC constraints
	// admit no solution within the signal cap.
	ErrModuleUnsolvable = synerr.ErrModuleUnsolvable
	// ErrConflictsPersist reports coding conflicts surviving every
	// repair round (incremental insertion or expansion refinement).
	ErrConflictsPersist = synerr.ErrConflictsPersist
	// ErrParse reports an STG source that failed to parse or validate,
	// or an invalid option set (see Options.Normalize). Every error
	// returned by ParseSTG, ParseSTGString and Options.Normalize matches
	// it; the concrete cause (e.g. stg.ParseError with its line number)
	// stays reachable through errors.As/Unwrap.
	ErrParse = synerr.ErrParse
)

// Tracer receives synthesis progress events: one StageStart/StageEnd
// pair per pipeline stage and one FormulaSolved per SAT instance.
// Implementations must be safe for concurrent use.
type Tracer = trace.Tracer

// StageEvent describes a pipeline stage boundary.
type StageEvent = trace.StageEvent

// FormulaEvent describes one solved SAT formula.
type FormulaEvent = trace.FormulaEvent

// StageStat records one pipeline stage's timing in a Circuit.
type StageStat = pipeline.StageStat

// NewJSONTracer returns a Tracer writing one JSON object per line to w.
func NewJSONTracer(w io.Writer) Tracer { return trace.NewJSON(w) }

// NewLogTracer returns a Tracer writing human-readable lines to w.
func NewLogTracer(w io.Writer) Tracer { return trace.NewLog(w) }

// Metrics is a thread-safe set of atomic synthesis counters (SAT
// decisions/conflicts/propagations/learned clauses, state-graph states
// explored and merged, ESPRESSO passes, modular passes, formula sizes).
// Attach one via Options.Metrics; it accumulates across every run it is
// attached to, and each run's own delta is reported in Circuit.Counters
// and per stage in Circuit.Stages. Collection is zero-overhead when no
// collector is attached: hot paths consult the context once per coarse
// operation and all methods no-op on nil.
type Metrics = metrics.Collector

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics { return metrics.New() }

// SolveCache is a concurrency-safe module solve cache (see
// Options.Cache): it maps the exact layout of a module problem, with
// every solver-visible option, to solved state-signal phase columns,
// answering exact repeats — in practice across whole runs — with
// bit-identical replays. The name is an alias for the internal
// implementation, so the facade and the pipeline share one type.
type SolveCache = modcache.Cache

// NewSolveCache returns an empty in-memory solve cache, suitable for
// sharing via Options.Cache across any number of concurrent runs.
func NewSolveCache() *SolveCache { return modcache.New() }

// NewDiskSolveCache returns a solve cache backed by content-addressed
// JSON records under dir (created if missing), layered over an
// in-memory map — the cache Options.CacheDir would build, exposed so
// long-lived callers (the synthesis daemon) can share one disk-backed
// instance across every run.
func NewDiskSolveCache(dir string) (*SolveCache, error) { return modcache.NewDisk(dir) }

// STG is a parsed or programmatically built signal transition graph.
type STG struct {
	g *stg.G
}

// ParseSTG reads an STG in the astg/SIS ".g" format. Errors match
// ErrParse.
func ParseSTG(r io.Reader) (*STG, error) {
	g, err := stg.Parse(r)
	if err != nil {
		return nil, synerr.Parse(err)
	}
	return &STG{g: g}, nil
}

// ParseSTGString parses a ".g" source held in a string. Errors match
// ErrParse.
func ParseSTGString(src string) (*STG, error) {
	g, err := stg.ParseString(src)
	if err != nil {
		return nil, synerr.Parse(err)
	}
	return &STG{g: g}, nil
}

// Name returns the model name.
func (s *STG) Name() string { return s.g.Name }

// Format renders the STG back in ".g" format.
func (s *STG) Format() string { return stg.Format(s.g) }

// Signals returns the signal names in declaration order.
func (s *STG) Signals() []string { return s.g.SignalNames() }

// Validate checks structural well-formedness.
func (s *STG) Validate() error { return s.g.Validate() }

// DOT renders the STG in Graphviz format.
func (s *STG) DOT() string { return dot.STG(s.g) }

// Method selects the synthesis algorithm.
type Method int

const (
	// Modular is the paper's modular partitioning method (default).
	Modular Method = iota
	// Direct is the whole-graph SAT formulation (Vanbekbergen et al.,
	// "no decomposition" in the paper's Table 1).
	Direct
	// Lavagno is the iterative whole-graph state-assignment baseline in
	// the spirit of Lavagno-Moon (DAC'92).
	Lavagno
)

func (m Method) String() string {
	switch m {
	case Modular:
		return "modular"
	case Direct:
		return "direct"
	case Lavagno:
		return "lavagno"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a method name ("modular", "direct", "lavagno";
// "" selects the default). Shared by cmd/modsyn's flag and the
// daemon's request schema so the accepted spellings stay in one place.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "modular":
		return Modular, nil
	case "direct":
		return Direct, nil
	case "lavagno":
		return Lavagno, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

// Options configures Synthesize. Normalize gives an option set its
// canonical form: a budget given at its default is the same as zero,
// and an invalid value is an error matching ErrParse.
type Options struct {
	Method Method
	// MaxBacktracks bounds each SAT search (0 means the default of
	// 2,000,000; negative is rejected); exceeding it aborts the run with
	// Circuit.Aborted set, mirroring the paper's "SAT Backtrack Limit"
	// table entries.
	MaxBacktracks int64
	// ExpandXor switches the CSC separation constraints to the paper's
	// non-auxiliary CNF expansion (exponential in the signal count); used
	// for clause-growth experiments.
	ExpandXor bool
	// MaxStates caps state graph generation (0 means the default of
	// 100,000; negative is rejected).
	MaxStates int
	// TokenBound is the per-place token bound (0 means the default of
	// 1, safe nets; negative is rejected).
	TokenBound int
	// Workers bounds the worker pool of per-signal logic derivation,
	// the pipeline's one parallel stage. 0 means GOMAXPROCS, 1 runs
	// sequentially. Conflict scans run as one sequential pass, and the
	// per-output module solves run one after another, most-conflicted
	// first, because each module sees the state signals the earlier
	// ones inserted. The synthesized circuit (areas, covers, inserted
	// signal names, clause counts) is bit-for-bit identical for every
	// value: the functions are collected in a fixed order, never
	// first-write-wins.
	Workers int
	// Timeout bounds the wall-clock time of a run (0 = none). An expired
	// timeout surfaces as an error matching ErrCanceled and
	// context.DeadlineExceeded. Uncanceled runs are unaffected: the
	// cancellation polls are read-only, so output stays bit-identical.
	Timeout time.Duration
	// Tracer, when non-nil, receives stage and formula events for the
	// run (see NewJSONTracer and NewLogTracer).
	Tracer Tracer
	// Metrics, when non-nil, accumulates the run's counters (see
	// Metrics); the run's delta also lands in Circuit.Counters and, per
	// stage, in Circuit.Stages. The deterministic counters (states,
	// clauses, modules and the SAT search statistics) are identical for
	// every Workers value.
	Metrics *Metrics
	// Cache, when non-nil, is a module solve cache shared across runs:
	// a module CSC problem laid out byte for byte like a previous one
	// and solved under the same solver options is answered by a
	// bit-identical replay instead of a fresh SAT search. Create one
	// with NewSolveCache. With Cache nil and CacheDir empty, the run
	// searches every formula uncached.
	Cache *SolveCache
	// CacheDir, when non-empty (and Cache is nil), backs the run's
	// solve cache with content-addressed JSON records under this
	// directory, persisting solves across processes. The directory is
	// created if missing.
	CacheDir string
}

// Normalize returns the canonical form of opt, the one every option
// key (the run database's, the daemon's) is derived from. It rejects
// an unknown Method and a negative MaxBacktracks, MaxStates or
// TokenBound with an error matching ErrParse, and it maps a budget
// given at its default to zero, so spelling a default out does not
// make another run. Every other field passes through unchanged.
// SynthesizeContext runs it first.
func (opt Options) Normalize() (Options, error) {
	invalid := func(format string, args ...any) (Options, error) {
		return Options{}, synerr.Parse(fmt.Errorf("asyncsyn: "+format, args...))
	}
	switch {
	case opt.Method != Modular && opt.Method != Direct && opt.Method != Lavagno:
		return invalid("unknown method %v", opt.Method)
	case opt.MaxBacktracks < 0:
		return invalid("negative MaxBacktracks %d", opt.MaxBacktracks)
	case opt.MaxStates < 0:
		return invalid("negative MaxStates %d", opt.MaxStates)
	case opt.TokenBound < 0:
		return invalid("negative TokenBound %d", opt.TokenBound)
	}
	if opt.MaxBacktracks == csc.DefaultMaxBacktracks {
		opt.MaxBacktracks = 0
	}
	if opt.MaxStates == sg.DefaultMaxStates {
		opt.MaxStates = 0
	}
	if opt.TokenBound == sg.DefaultTokenBound {
		opt.TokenBound = 0
	}
	return opt, nil
}

// FormulaStat describes one SAT instance solved during synthesis.
type FormulaStat struct {
	Output   string // output whose modular graph produced it ("" = global)
	Signals  int    // state signals attempted
	Vars     int
	Clauses  int
	Literals int
	Status   string // "SAT", "UNSAT", "BACKTRACK-LIMIT"
	// Cached reports that the instance was replayed from the module
	// solve cache instead of being searched.
	Cached bool
	// Time is the attempt's time: from its start, before the module-cache
	// key is built, to the end of the search, so it also covers key
	// hashing, encoding and the solver load. A cache hit reports the time
	// to the hit.
	Time time.Duration
	// Search is the time inside the SAT search alone; 0 on a cache hit.
	Search time.Duration
}

// Function is a synthesized next-state logic function in two-level
// sum-of-products form over its support signals.
type Function struct {
	Name   string
	Inputs []string

	cover logic.Cover
}

// Literals returns the unfactored literal count (the paper's area unit).
func (f Function) Literals() int { return f.cover.Literals() }

// SOP renders the cover as a sum-of-products expression.
func (f Function) SOP() string { return f.cover.Format(f.Inputs) }

// String renders the function as an equation.
func (f Function) String() string { return fmt.Sprintf("%s = %s", f.Name, f.SOP()) }

// Cubes returns the cover in PLA-style rows over Inputs.
func (f Function) Cubes() []string {
	out := make([]string, len(f.cover))
	for i, c := range f.cover {
		out[i] = c.String()
	}
	return out
}

// Eval evaluates the function for an assignment of its inputs.
func (f Function) Eval(values map[string]bool) bool {
	var m uint64
	for i, name := range f.Inputs {
		if values[name] {
			m |= 1 << i
		}
	}
	return f.cover.Eval(m)
}

// ModuleReport describes one per-output modular pass.
type ModuleReport struct {
	Output       string
	InputSet     []string
	MergedStates int
	Conflicts    int
	NewSignals   int
	// Widened is always false.
	//
	// Deprecated: the modular method no longer retries a module on a
	// widened input set; an unsolvable module ends the run.
	Widened bool
}

// Circuit is the result of synthesis.
type Circuit struct {
	Name   string
	Method Method

	InitialStates  int
	InitialSignals int
	FinalStates    int
	FinalSignals   int
	StateSignals   int

	// Area is the total literal count of all non-input functions.
	Area int
	// Aborted is set when a SAT backtrack limit was exhausted; the
	// remaining fields describe the partial run.
	Aborted bool
	// CPU is the wall-clock synthesis time.
	CPU time.Duration

	Functions []Function
	Modules   []ModuleReport // modular method only
	Formulas  []FormulaStat
	// Stages records the per-stage timings of the pipeline run; when
	// Options.Metrics is set each stage also carries the counters it
	// advanced.
	Stages []StageStat
	// Counters holds this run's metrics deltas keyed by their stable
	// schema names (sat_decisions, sg_states, modules, ...); nil unless
	// Options.Metrics was set.
	Counters map[string]int64

	// initialLevels records the reset level of every signal (including
	// inserted state signals) for closed-loop verification.
	initialLevels map[string]bool
}

// setStateSignals fixes the single source of truth for the inserted
// state-signal count: the growth of the signal set when the final
// (expanded) graph exists — which already accounts for pruning and
// expansion-refinement signals — and the solver's inserted count
// otherwise (aborted runs that never reached expansion).
func (c *Circuit) setStateSignals(inserted int) {
	if c.FinalSignals > 0 {
		c.StateSignals = c.FinalSignals - c.InitialSignals
	} else {
		c.StateSignals = inserted
	}
}

// Digest returns a short hash of the circuit's machine-independent
// outputs: the final shape (states, signals, state signals, area) and
// every synthesized equation. Two runs that produce bit-identical
// circuits produce equal digests regardless of Workers, caching, host
// or transport; any behaviour change to a cover moves it. cmd/bench
// records it in BENCH_*.json rows and the daemon returns it with every
// response, so HTTP results are directly comparable to library calls.
func (c *Circuit) Digest() string {
	parts := []string{fmt.Sprintf("shape %d/%d/%d/%d", c.FinalStates, c.FinalSignals, c.StateSignals, c.Area)}
	for _, f := range c.Functions {
		parts = append(parts, f.String())
	}
	return benchrec.Digest(parts)
}

// Function returns the function driving the named signal.
func (c *Circuit) Function(name string) (Function, bool) {
	for _, f := range c.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return Function{}, false
}

// Synthesize derives a speed-independent circuit from an STG with the
// selected method. A non-nil error reports an invalid or unsupported
// specification; a backtrack-limit abort is reported via Circuit.Aborted
// instead (partial statistics are still returned).
func Synthesize(s *STG, opt Options) (*Circuit, error) {
	return SynthesizeContext(context.Background(), s, opt)
}

// SynthesizeContext is Synthesize under a caller-supplied context:
// canceling ctx (or exceeding Options.Timeout) stops the run promptly —
// every long-running loop in the pipeline polls the context, down to
// the SAT search's inner branch loop — and returns an error matching
// ErrCanceled. Uncanceled runs produce bit-identical circuits to
// Synthesize: the polls are read-only. An option set that Normalize
// rejects returns its ErrParse error before any work.
func SynthesizeContext(ctx context.Context, s *STG, opt Options) (*Circuit, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	if opt.Tracer != nil {
		ctx = trace.With(ctx, opt.Tracer, s.g.Name, opt.Method.String())
	}
	if opt.Metrics != nil {
		ctx = metrics.With(ctx, opt.Metrics)
	}
	before := opt.Metrics.Snapshot()
	copt, err := coreOptions(opt)
	if err != nil {
		return nil, err
	}
	var c *Circuit
	if opt.Method == Modular {
		c, err = synthesizeModular(ctx, s, copt, start)
	} else {
		c, err = synthesizeWholeGraph(ctx, s, opt.Method, copt, start)
	}
	if c != nil {
		// The collector may be shared across runs; the circuit reports
		// only this run's delta.
		c.Counters = opt.Metrics.Snapshot().Delta(before)
	}
	return c, err
}

// coreOptions maps normalized facade options to the pipeline's, the one
// place the facade builds internal options: the run solves uncached
// unless Cache or CacheDir opts in, and the whole-graph baselines take
// their csc.SolveOptions and budget from the SAT part.
func coreOptions(opt Options) (core.Options, error) {
	cache := opt.Cache
	var err error
	if cache == nil && opt.CacheDir != "" {
		cache, err = modcache.NewDisk(opt.CacheDir)
	}
	return core.Options{
		SAT: csc.SolveOptions{
			ExpandXor:     opt.ExpandXor,
			MaxBacktracks: opt.MaxBacktracks,
			Cache:         cache,
		},
		StateGraph: sg.Options{Bound: opt.TokenBound, MaxStates: opt.MaxStates},
		Workers:    opt.Workers,
	}, err
}

// finishAborted maps the internal error taxonomy to the facade's abort
// contract: a backtrack-limit exhaustion anywhere in the pipeline is not
// an error but a reported abort (the paper's Table 1 prints those runs
// with their partial statistics). Every other error — including
// cancellation — surfaces as an error.
func finishAborted(c *Circuit, err error, start time.Time) (*Circuit, error, bool) {
	c.CPU = time.Since(start)
	if err == nil {
		return c, nil, true
	}
	if errors.Is(err, synerr.ErrBacktrackLimit) && !errors.Is(err, synerr.ErrCanceled) {
		c.Aborted = true
		return c, nil, true
	}
	return nil, err, false
}

func synthesizeModular(ctx context.Context, s *STG, opt core.Options, start time.Time) (*Circuit, error) {
	res, err := core.Synthesize(ctx, s.g, opt)
	if res == nil {
		return nil, err
	}
	c := &Circuit{
		Name: res.Name, Method: Modular,
		InitialStates: res.InitialStates, InitialSignals: res.InitialSignals,
		FinalStates: res.FinalStates, FinalSignals: res.FinalSignals,
		Area: res.Area, Stages: res.Stages,
	}
	c.setStateSignals(res.Inserted)
	for _, o := range res.Outputs {
		c.Modules = append(c.Modules, ModuleReport{
			Output: o.Output, InputSet: o.InputSet,
			MergedStates: o.MergedStates, Conflicts: o.Ncsc, NewSignals: o.NewSignals,
		})
		for _, f := range o.Formulas {
			c.Formulas = append(c.Formulas, formulaStat(o.Output, f))
		}
	}
	for _, f := range res.Fallback {
		c.Formulas = append(c.Formulas, formulaStat("", f))
	}
	for _, f := range res.Functions {
		c.Functions = append(c.Functions, newFunction(f))
	}
	c.initialLevels = initialLevelsOf(res.View)
	c, err, _ = finishAborted(c, err, start)
	return c, err
}

// synthesizeWholeGraph runs the Direct and Lavagno baselines as a stage
// list on the shared pipeline driver: elaborate → csc → expand → logic.
func synthesizeWholeGraph(ctx context.Context, s *STG, method Method, coreOpt core.Options, start time.Time) (*Circuit, error) {
	c := &Circuit{Name: s.g.Name, Method: method}

	var (
		full     *sg.Graph
		view     *sg.Stream
		inserted int
	)
	stages := []pipeline.Stage{
		{Name: "elaborate", Run: func(ctx context.Context) error {
			g, err := sg.FromSTGContext(ctx, s.g, coreOpt.StateGraph)
			if err != nil {
				return err
			}
			full = g
			c.InitialStates = full.NumStates()
			c.InitialSignals = len(full.Base)
			return nil
		}},
		{Name: "csc", Run: func(ctx context.Context) error {
			switch method {
			case Direct:
				dr, err := csc.Solve(ctx, full, coreOpt.SAT)
				if dr != nil {
					inserted = dr.Inserted
					for _, f := range dr.Formulas {
						c.Formulas = append(c.Formulas, formulaStat("", f))
					}
				}
				return err
			default: // Lavagno
				lr, err := lavagno.Solve(ctx, full, coreOpt.SAT)
				if lr != nil {
					inserted = lr.Inserted
					for _, f := range lr.Formulas {
						c.Formulas = append(c.Formulas, formulaStat("", f))
					}
				}
				return err
			}
		}},
		{Name: "expand", Run: func(ctx context.Context) error {
			v, _, fallback, err := core.ExpandToCSC(ctx, full, coreOpt)
			for _, f := range fallback {
				c.Formulas = append(c.Formulas, formulaStat("", f))
			}
			if err != nil {
				return err
			}
			view = v
			c.FinalStates = view.NumStates()
			c.FinalSignals = len(view.Base)
			return nil
		}},
		{Name: "logic", Run: func(ctx context.Context) error {
			fns, err := core.DeriveLogic(ctx, view, full, nil, nil, coreOpt)
			if err != nil {
				return err
			}
			for _, f := range fns {
				nf := newFunction(f)
				c.Functions = append(c.Functions, nf)
				c.Area += nf.Literals()
			}
			c.initialLevels = initialLevelsOf(view)
			return nil
		}},
	}
	stats, err := pipeline.Run(ctx, stages)
	c.Stages = stats
	c.setStateSignals(inserted)
	c, err, _ = finishAborted(c, err, start)
	return c, err
}

// initialLevelsOf extracts the reset code of the final state space from
// its column view (nil on aborted runs that never reached expansion).
func initialLevelsOf(v *sg.Stream) map[string]bool {
	if v == nil {
		return nil
	}
	levels := make(map[string]bool, len(v.Base))
	code := v.InitialCode()
	for i, b := range v.Base {
		levels[b.Name] = code&(1<<i) != 0
	}
	return levels
}

func formulaStat(output string, f csc.FormulaStats) FormulaStat {
	return FormulaStat{
		Output: output, Signals: f.Signals, Vars: f.Vars,
		Clauses: f.Clauses, Literals: f.Literals,
		Status: f.Status.String(), Cached: f.Cached,
		Time: f.SolveTime, Search: f.SearchTime,
	}
}

func newFunction(f core.Function) Function {
	return Function{Name: f.Name, Inputs: f.Vars, cover: f.Cover}
}
