package csc

import (
	"context"
	"errors"
	"time"

	"asyncsyn/internal/bdd"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/trace"
)

// Attempt tries to find phase columns for m new state signals resolving
// conf on g, using the configured engine. The outcome is reported
// through the returned FormulaStats.Status: Sat (cols valid), Unsat
// (grow m) or BacktrackLimit (budget exhausted — abort). The BDD engine
// falls back to DPLL transparently when its node limit is hit, and
// returns globally minimum-excitation models, so Tighten is applied only
// to SAT-engine models.
//
// With opt.Cache set, the solve is answered from the module solve cache
// when an identical problem (same layout signature, options and
// warm-chain state — see modcache.Key) was solved before; a hit replays
// the stored outcome, including the producing solve's warm-chain
// contribution, so cached and cold runs are bit-identical. A DPLL search
// runs on opt.Incr, the chain's incremental solver, or on a one-off one
// when opt.Incr is nil. With opt.Chain set, DPLL searches are seeded
// with the chain's reusable learned clauses and contribute their own
// stable exports back.
//
// ctx cancels the solve mid-formula (every engine polls it); a canceled
// attempt returns an error matching synerr.ErrCanceled. Each completed
// formula is also reported to the tracer carried by ctx, if any.
func Attempt(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, m int, opt SolveOptions) ([][]sg.Phase, FormulaStats, error) {
	opt = opt.withDefaults()
	start := time.Now()
	opt.Chain.bind(g)
	if opt.Cache == nil {
		cols, stats, _, err := solveUncached(ctx, g, conf, m, opt, start)
		return cols, stats, err
	}

	key := modcache.Key{
		Layout:        sg.SignatureOf(g, conf),
		M:             m,
		Engine:        int(opt.Engine),
		ExpandXor:     opt.ExpandXor,
		MaxBacktracks: int(opt.MaxBacktracks),
		WarmHash:      opt.Chain.Hash(),
	}
	var missStats FormulaStats
	entry, hit, err := opt.Cache.Do(ctx, key, func() (*modcache.Entry, error) {
		cols, stats, norm, err := solveUncached(ctx, g, conf, m, opt, start)
		if err != nil {
			return nil, err
		}
		missStats = stats
		return &modcache.Entry{
			Cols: cols, Signals: stats.Signals, Vars: stats.Vars,
			Clauses: stats.Clauses, Literals: stats.Literals,
			Status: stats.Status, Engine: stats.Engine, Warm: norm,
		}, nil
	})
	if err != nil {
		return nil, FormulaStats{}, err
	}
	if !hit {
		return entry.Cols, missStats, nil
	}

	// Cache hit: replay the stored outcome. The formula-size counters
	// are recorded from the entry so a cached run reports the same
	// sat_formulas/sat_clauses/sat_vars totals as a cold one; search
	// counters (decisions, conflicts, ...) are genuinely zero — no
	// search ran. The warm-chain contribution is replayed too, so every
	// later solve of this chain sees the seeds it would have seen cold.
	stats := FormulaStats{
		Signals: entry.Signals, Vars: entry.Vars, Clauses: entry.Clauses,
		Literals: entry.Literals, Status: entry.Status,
		SolveTime: time.Since(start), Engine: entry.Engine, Cached: true,
	}
	emitFormula(ctx, stats)
	if mc := metrics.From(ctx); mc != nil {
		mc.Add(metrics.SATFormulas, 1)
		mc.Add(metrics.SATClauses, int64(stats.Clauses))
		mc.Add(metrics.SATVars, int64(stats.Vars))
	}
	opt.Chain.AbsorbNormalized(entry.Warm)
	return entry.Cols, stats, nil
}

// solveUncached is one actual solve: search, decode, tighten. Every
// DPLL search runs on opt.Incr, or on a one-off ChainSolver when the
// caller keeps none. norm is the solve's normalized warm-chain
// contribution (already absorbed into opt.Chain); callers that cache
// the outcome store it so hits can replay the absorption.
func solveUncached(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, m int, opt SolveOptions, start time.Time) (cols [][]sg.Phase, stats FormulaStats, norm [][]sat.Lit, err error) {
	// A BDD solve that hits its node limit counts toward the search
	// time of the DPLL attempt that follows it.
	var bddSearch time.Duration
	if opt.Engine == BDD {
		t0 := time.Now()
		bcols, berr := SolveBDD(ctx, g, conf, m, opt.bddNodeLimit)
		bddSearch = time.Since(t0)
		stats = FormulaStats{
			Signals: m, Vars: 2 * m * len(g.States),
			SolveTime: time.Since(start), SearchTime: bddSearch, Engine: "bdd",
		}
		switch {
		case berr == nil:
			stats.Status = sat.Sat
			emitFormula(ctx, stats)
			recordFormula(ctx, stats, sat.Result{})
			return bcols, stats, nil, nil
		case errors.Is(berr, ErrUnsatisfiable):
			stats.Status = sat.Unsat
			emitFormula(ctx, stats)
			recordFormula(ctx, stats, sat.Result{})
			return nil, stats, nil, nil
		case errors.Is(berr, bdd.ErrNodeLimit):
			// Fall through to the SAT engine below.
		default:
			return nil, stats, nil, berr
		}
	}

	incr := opt.Incr
	if incr == nil {
		incr = NewChainSolver()
	}
	cols, stats, norm, err = incr.solve(ctx, g, conf, m, opt, start)
	stats.SearchTime += bddSearch
	return cols, stats, norm, err
}

// recordFormula accumulates the formula's size and the engine's search
// statistics into the metrics collector carried by ctx, if any.
func recordFormula(ctx context.Context, st FormulaStats, r sat.Result) {
	mc := metrics.From(ctx)
	if mc == nil {
		return
	}
	mc.Add(metrics.SATFormulas, 1)
	mc.Add(metrics.SATClauses, int64(st.Clauses))
	mc.Add(metrics.SATVars, int64(st.Vars))
	mc.Add(metrics.SATDecisions, r.Decisions)
	mc.Add(metrics.SATConflicts, r.Backtracks)
	mc.Add(metrics.SATPropagations, r.Props)
	mc.Add(metrics.SATLearned, r.Learned)
	mc.Add(metrics.SATRestarts, r.Restarts)
}

// emitFormula reports a solved formula to the tracer carried by ctx.
func emitFormula(ctx context.Context, st FormulaStats) {
	if !trace.Enabled(ctx) {
		return
	}
	trace.Formula(ctx, trace.FormulaEvent{
		Signals:  st.Signals,
		Vars:     st.Vars,
		Clauses:  st.Clauses,
		Literals: st.Literals,
		Status:   st.Status.String(),
		Engine:   st.Engine,
		Duration: st.SolveTime,
	})
}
