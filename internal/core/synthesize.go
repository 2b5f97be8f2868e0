package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/logic"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/par"
	"asyncsyn/internal/pipeline"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

// Options configures modular synthesis.
type Options struct {
	// SAT configures every CSC solve of the run: the module formulas,
	// the residual whole-graph pass and expansion refinement.
	SAT csc.SolveOptions
	// StateGraph tunes reachability generation.
	StateGraph sg.Options
	// Workers bounds the worker pool of per-signal logic derivation,
	// the one stage that fans out: 0 means GOMAXPROCS, 1 runs
	// sequentially. Conflict scans run as one sequential pass, and the
	// module solves run one after another in the paper's
	// most-conflicted-first order, since each module sees the state
	// signals earlier ones inserted. The synthesized circuit is
	// bit-for-bit identical for every value — the functions are
	// collected in a fixed order (DESIGN.md §3.8).
	Workers int

	// Ablation and test hooks, set only by this package's tests.
	//
	// fullSupport disables the per-output support restriction and
	// derives every function over all signals (the paper credits part
	// of its area win to the reduced support).
	fullSupport bool
	// exactLogic uses the exact minimum-literal minimizer (espresso's
	// exact strategy) instead of the ESPRESSO heuristic loop, falling
	// back to the heuristic when prime enumeration explodes.
	exactLogic bool
	// expandIters overrides maxExpandIters when positive.
	expandIters int
}

const (
	// maxSignals bounds the state signals of one module's solve chain
	// and of one expansion-refinement round.
	maxSignals = 6
	// maxExpandIters bounds the expansion/re-insertion loop that repairs
	// conflicts introduced by state-signal interleavings.
	maxExpandIters = 3
)

func (o Options) withDefaults() Options {
	if o.SAT.NamePrefix == "" {
		o.SAT.NamePrefix = "csc"
	}
	if o.expandIters == 0 {
		o.expandIters = maxExpandIters
	}
	return o
}

// OutputReport records the modular pass for one output signal: its
// input set, the state signals the module kept, and what partition_sat
// reported.
type OutputReport struct {
	Output    string
	InputSet  []string
	StateSigs []string
	PartitionResult
}

// Function is one synthesized logic function: a prime-irredundant
// sum-of-products cover over the named support variables.
type Function struct {
	Name  string
	Vars  []string
	Cover logic.Cover
}

// Literals returns the unfactored literal count (the paper's area
// metric).
func (f Function) Literals() int { return f.Cover.Literals() }

// String renders the function as an equation.
func (f Function) String() string {
	return fmt.Sprintf("%s = %s", f.Name, f.Cover.Format(f.Vars))
}

// Result is a completed synthesis run. On error the result still carries
// whatever the completed stages produced (reports, formula stats, stage
// timings); the error's identity is in the synerr taxonomy
// (ErrBacktrackLimit, ErrCanceled, ErrConflictsPersist, ...).
type Result struct {
	Name           string
	InitialStates  int
	InitialSignals int
	FinalStates    int
	FinalSignals   int
	Inserted       int
	ExpandIters    int
	Outputs        []OutputReport
	// Fallback records whole-graph SAT passes needed after the per-output
	// loop (residual conflicts) or after expansion; empty in the common
	// case.
	Fallback  []csc.FormulaStats
	Functions []Function
	Area      int
	Time      time.Duration
	// Stages records the per-stage timings of the pipeline run, including
	// a failed stage (its Err field is set).
	Stages []pipeline.StageStat

	// Full is the complete state graph with inserted phase columns.
	Full *sg.Graph
	// View is the column view of the final binary state graph the logic
	// was derived from; populated on success. Callers that need the
	// expanded edge structure rebuild it with Full.Expand().
	View *sg.Stream
}

// Synthesize runs the paper's modular_synthesis (Figure 6) on an STG:
// derive Σ, then for every non-input signal determine the input set,
// build and solve the modular state graph, and propagate the assignments;
// finally expand Σ with the state-signal transitions and derive a
// prime-irredundant cover for every non-input signal.
//
// The run is a pipeline of stages (elaborate → modules → residual →
// expand → logic) executed by the shared pipeline driver: ctx cancels
// between and within stages (an error matching synerr.ErrCanceled), and
// a tracer carried by ctx receives one event per stage and per SAT
// formula. The returned Result is non-nil even on error and carries the
// completed stages' data.
func Synthesize(ctx context.Context, spec *stg.G, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	res := &Result{Name: spec.Name}

	var (
		full     *sg.Graph
		supports map[int]InputSet
		passSigs map[int][]string
	)

	stages := []pipeline.Stage{
		{Name: "elaborate", Run: func(ctx context.Context) error {
			g, err := sg.FromSTGContext(ctx, spec, opt.StateGraph)
			if err != nil {
				return err
			}
			full = g
			res.InitialStates = full.NumStates()
			res.InitialSignals = len(full.Base)
			res.Full = full
			return nil
		}},
		{Name: "modules", Run: func(ctx context.Context) error {
			var err error
			supports, passSigs, err = runModules(ctx, full, spec, opt, res)
			return err
		}},
		{Name: "residual", Run: func(ctx context.Context) error {
			// Residual whole-graph conflicts (the integration of local
			// solutions is not guaranteed optimal or even complete in
			// theory; in practice this pass is a no-op, and
			// TestResidualSolveNeeded pins a case that expansion
			// refinement could not repair without it).
			if conf := sg.Analyze(full); conf.N() > 0 {
				dr, err := csc.Solve(ctx, full, opt.SAT)
				if dr != nil {
					res.Fallback = append(res.Fallback, dr.Formulas...)
					res.Inserted += dr.Inserted
				}
				if err != nil {
					return fmt.Errorf("residual conflicts: %w", err)
				}
			}
			return nil
		}},
		{Name: "expand", Run: func(ctx context.Context) error {
			view, iters, fallback, err := ExpandToCSC(ctx, full, opt)
			res.Fallback = append(res.Fallback, fallback...)
			res.ExpandIters = iters
			if err != nil {
				return err
			}
			res.View = view
			res.FinalStates = view.NumStates()
			res.FinalSignals = len(view.Base)
			return nil
		}},
		{Name: "logic", Run: func(ctx context.Context) error {
			fns, err := DeriveLogic(ctx, res.View, full, supports, passSigs, opt)
			if err != nil {
				return err
			}
			res.Functions = fns
			for _, f := range fns {
				res.Area += f.Literals()
			}
			return nil
		}},
	}

	stats, err := pipeline.Run(ctx, stages)
	res.Stages = stats
	res.Time = time.Since(start)
	if err != nil {
		return res, err
	}
	return res, nil
}

// runModules executes the per-output modular passes: input-set
// determination, then partition_sat (the modular CSC solve and the
// global propagation of its signals). It fills res.Outputs/res.Inserted
// and returns the per-output supports and pass signals needed by logic
// derivation. A module partition_sat cannot solve ends the run.
func runModules(ctx context.Context, full *sg.Graph, spec *stg.G, opt Options, res *Result) (map[int]InputSet, map[int][]string, error) {
	// The most-conflicted output goes first: its module contains the
	// structural core of the coding problem, and the signals inserted for
	// it (propagated globally, the paper's Figure 5) resolve most of the
	// remaining outputs' conflicts for free. The reverse order forces one
	// module to invent several entangled signals at once, which measurably
	// degrades area. Ties keep name order.
	//
	// Each output's conflict count is computed exactly once, by the
	// counting evaluator on the unmerged graph (the comparator itself
	// must stay cheap: it runs O(n log n) times).
	outs := nonInputsByName(full)
	counts := make(map[int]int, len(outs))
	for _, o := range outs {
		counts[o], _ = outputStats(full, o)
	}
	sort.SliceStable(outs, func(i, j int) bool { return counts[outs[i]] > counts[outs[j]] })
	supports := make(map[int]InputSet)
	passSigs := make(map[int][]string) // output → state-signal names kept or added in its pass
	for _, o := range outs {
		name := full.Base[o].Name
		is := DetermineInputSet(full, spec, o)
		before := len(full.StateSigs)
		pr, err := PartitionSAT(trace.WithOutput(ctx, name), full, is, opt)
		supports[o] = is
		rep := OutputReport{Output: name, InputSet: full.SignalNamesIn(is.Mask)}
		for _, k := range is.StateSigs {
			rep.StateSigs = append(rep.StateSigs, full.StateSigs[k].Name)
		}
		passSigs[o] = append([]string(nil), rep.StateSigs...)
		for _, ss := range full.StateSigs[before:] {
			passSigs[o] = append(passSigs[o], ss.Name)
		}
		if pr != nil {
			rep.PartitionResult = *pr
			res.Inserted += pr.NewSignals
		}
		res.Outputs = append(res.Outputs, rep)
		if err != nil {
			return supports, passSigs, fmt.Errorf("output %q: %w", name, err)
		}
	}
	return supports, passSigs, nil
}

// ExpandToCSC expands the phase columns of g into explicit signals. If
// the serialised interleavings introduce fresh conflicts between
// expanded states, the colliding pairs are mapped back to the states of
// g they came from and an additional state signal separating them is
// found by a SAT formula at the ORIGINAL graph's scale (a
// counterexample-guided refinement: the expansion is the checker, the
// small graph the solver), up to maxExpandIters rounds. g is
// modified in place when refinement signals are added.
//
// Each round streams the expansion (sg.ExpandStream): only the
// per-state columns the conflict scan and logic derivation need are
// retained, never the expanded edge structure, so peak heap scales with
// the state count times a few words instead of the full graph.
//
// iters reports the number of expansion rounds actually run; when
// conflicts survive every round the returned error matches
// synerr.ErrConflictsPersist and iters equals maxExpandIters (no
// refinement is attempted after the final expansion — its result could
// never be checked).
func ExpandToCSC(ctx context.Context, g *sg.Graph, opt Options) (view *sg.Stream, iters int, fallback []csc.FormulaStats, err error) {
	opt = opt.withDefaults()
	// Every refinement round solves formulas on the same graph g (only
	// phase columns are appended between rounds), so one warm chain
	// and one chain solver serve them all.
	opt.SAT = opt.SAT.WithChain()
	mc := metrics.From(ctx)
	for iters = 1; ; iters++ {
		view, err = g.ExpandStream()
		if err != nil {
			return nil, iters, fallback, err
		}
		mc.Add(metrics.SGStates, int64(view.NumStates()))
		mc.Add(metrics.SGStatesStreamed, int64(view.NumStates()))
		mc.Max(metrics.SGPeakFrontier, int64(view.PeakFrontier))
		conf := sg.AnalyzeStream(view)
		if conf.N() == 0 {
			return view, iters, fallback, nil
		}
		if iters >= opt.expandIters {
			return nil, iters, fallback, fmt.Errorf("core: CSC conflicts persist after %d expansion rounds: %w",
				opt.expandIters, synerr.ErrConflictsPersist)
		}
		refined := refinementConflicts(g, view.Origin, conf)
		stats, rerr := solveRefinement(ctx, g, refined, opt, iters)
		fallback = append(fallback, stats...)
		if rerr != nil {
			return nil, iters, fallback, rerr
		}
	}
}

// refinementConflicts maps expanded-graph conflict pairs back to g's
// states through the origin column (expanded state → originating state
// of g) and widens the USC side to every pair of g whose expansions
// could still collide (equal base codes with overlapping state-signal
// level sets).
func refinementConflicts(g *sg.Graph, origin []int, conf *sg.Conflicts) *sg.Conflicts {
	mustSep := make(map[sg.Pair]bool)
	for _, p := range conf.CSC {
		a, b := origin[p.A], origin[p.B]
		if a > b {
			a, b = b, a
		}
		if a != b {
			mustSep[sg.Pair{A: a, B: b}] = true
		}
	}
	out := &sg.Conflicts{LowerBound: 1}
	for p := range mustSep {
		out.CSC = append(out.CSC, p)
	}
	sort.Slice(out.CSC, func(i, j int) bool {
		if out.CSC[i].A != out.CSC[j].A {
			return out.CSC[i].A < out.CSC[j].A
		}
		return out.CSC[i].B < out.CSC[j].B
	})

	out.USC = overlapUSC(g, out.CSC)
	return out
}

// solveRefinement inserts state signals into g separating the refined
// conflict pairs with the Figure 4 loop (csc.Insert) at m=1: one joint
// attempt, then greedy insertion of up to maxSignals signals (cascaded
// instances cannot be reached by growing m jointly), re-evaluating
// after each insertion which refined pairs remain unseparated. Signals
// are named <prefix>x<round>_<index>. Budget exhaustion returns an
// error matching synerr.ErrBacktrackLimit.
func solveRefinement(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, opt Options, round int) ([]csc.FormulaStats, error) {
	refresh := func() *sg.Conflicts {
		out := &sg.Conflicts{LowerBound: 1}
		for _, p := range conf.CSC {
			if !stablySeparated(g, p) {
				out.CSC = append(out.CSC, p)
			}
		}
		out.USC = overlapUSC(g, out.CSC)
		return out
	}
	sopt := opt.SAT
	sopt.NamePrefix = fmt.Sprintf("%sx%d_", opt.SAT.NamePrefix, round)
	res, err := csc.Insert(ctx, g, conf, refresh, 1, maxSignals, sopt)
	if err != nil {
		return res.Formulas, fmt.Errorf("core: expansion refinement round %d: %w", round, err)
	}
	return res.Formulas, nil
}

// stablySeparated reports whether some state signal holds stable
// complementary values at the pair's states.
func stablySeparated(g *sg.Graph, p sg.Pair) bool {
	for _, ss := range g.StateSigs {
		a, b := ss.Phases[p.A], ss.Phases[p.B]
		if (a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0) {
			return true
		}
	}
	return false
}

// overlapUSC lists the pairs with equal base codes whose expansions can
// still collide (every state signal's level sets overlapping), minus the
// given CSC pairs.
func overlapUSC(g *sg.Graph, cscPairs []sg.Pair) []sg.Pair {
	skip := make(map[sg.Pair]bool, len(cscPairs))
	for _, p := range cscPairs {
		skip[p] = true
	}
	overlap := func(a, b sg.Phase) bool {
		if a == sg.PUp || a == sg.PDown || b == sg.PUp || b == sg.PDown {
			return true
		}
		return a == b
	}
	// Pairs come in ascending base code, then ascending states: the
	// order of the refinement encoding's clauses.
	codes := make([]uint64, len(g.States))
	for s := range g.States {
		codes[s] = g.States[s].Code & g.Active
	}
	_, groups := sg.GroupCodes(codes)
	var out []sg.Pair
	for _, states := range groups {
		for i := 0; i < len(states); i++ {
		pair:
			for j := i + 1; j < len(states); j++ {
				p := sg.Pair{A: states[i], B: states[j]}
				if skip[p] {
					continue
				}
				for _, ss := range g.StateSigs {
					if !overlap(ss.Phases[p.A], ss.Phases[p.B]) {
						continue pair
					}
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// DeriveLogic extracts and minimizes the logic of every non-input signal
// of the expanded state space. Original outputs use their recorded
// input-set support (plus the state signals, identified by name, kept
// or created in their pass), falling back to wider supports if the
// restricted table is ill defined; inserted state signals and any
// signal without a record use the full support.
//
// Every signal's cover is independent of the others, so the table
// extraction and ESPRESSO minimization fan out over the worker pool and
// the functions are collected in sorted-name order — the same order the
// sequential loop produced.
func DeriveLogic(ctx context.Context, expanded *sg.Stream, full *sg.Graph, supports map[int]InputSet, passSigs map[int][]string, opt Options) ([]Function, error) {
	sigs := nonInputsOf(expanded.Base)
	fns, err := par.Map(len(sigs), opt.Workers, func(si int) (Function, error) {
		sigIdx := sigs[si]
		var tbl *sg.Table
		var err error
		for _, m := range supportMasks(expanded, full, sigIdx, supports, passSigs, opt) {
			tbl, err = expanded.FunctionTable(sigIdx, m)
			if err == nil {
				break
			}
		}
		if err != nil {
			return Function{}, err
		}
		spec := logic.Spec{NumVars: len(tbl.Vars), On: tbl.On, Off: tbl.Off}
		var cover logic.Cover
		if opt.exactLogic {
			cover, err = logic.MinimizeExactContext(ctx, spec, logic.ExactOptions{})
			if err != nil && errors.Is(err, synerr.ErrCanceled) {
				return Function{}, err
			}
		}
		if !opt.exactLogic || err != nil {
			// Heuristic path, also the fallback when exact minimization
			// exceeds its prime or search budget.
			cover, err = logic.MinimizeContext(ctx, spec, logic.Options{})
		}
		if err != nil {
			return Function{}, fmt.Errorf("minimizing %q: %w", tbl.Signal, err)
		}
		return Function{Name: tbl.Signal, Vars: tbl.Vars, Cover: cover}, nil
	})
	if err != nil {
		return nil, err
	}
	return fns, nil
}

// supportMasks returns the supports, over the expanded signals, that
// DeriveLogic tries in turn for signal sigIdx until its table is well
// defined: for an original output with a recorded input set, the input
// set plus the signal itself and its passes' state signals, then that
// plus every state signal, then every signal; otherwise every signal.
func supportMasks(expanded *sg.Stream, full *sg.Graph, sigIdx int, supports map[int]InputSet, passSigs map[int][]string, opt Options) []uint64 {
	base := expanded.Base
	fullMask := uint64(0)
	for i := range base {
		fullMask |= 1 << i
	}
	is, ok := supportFor(full, sigIdx, supports)
	if !ok || opt.fullSupport {
		return []uint64{fullMask}
	}
	restricted := is.Mask | 1<<uint(sigIdx)
	for _, name := range passSigs[is.Output] {
		if bi, ok := expanded.SignalIndex(name); ok {
			restricted |= 1 << bi
		}
	}
	withAll := restricted
	for k := len(full.Base); k < len(base); k++ {
		withAll |= 1 << k
	}
	return []uint64{restricted, withAll, fullMask}
}

// supportFor maps an expanded-graph signal index back to its recorded
// input set, when the signal is one of the original outputs.
func supportFor(full *sg.Graph, sigIdx int, supports map[int]InputSet) (InputSet, bool) {
	if sigIdx >= len(full.Base) {
		return InputSet{}, false
	}
	is, ok := supports[sigIdx]
	return is, ok
}

// nonInputsByName lists non-input base signal indices sorted by name.
func nonInputsByName(g *sg.Graph) []int { return nonInputsOf(g.Base) }

// nonInputsOf is nonInputsByName over a bare signal list (shared with
// the streamed view, which has no graph).
func nonInputsOf(base []sg.SignalInfo) []int {
	var idx []int
	for i, b := range base {
		if !b.Input {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return base[idx[a]].Name < base[idx[b]].Name })
	return idx
}
