package csc

import (
	"context"
	"time"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/trace"
)

// Attempt tries to find phase columns for m new state signals resolving
// conf on g with one DPLL search. The outcome is reported through the
// returned FormulaStats.Status: Sat (cols valid, tightened), Unsat (grow
// m) or BacktrackLimit (budget exhausted — abort).
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
// ctx cancels the solve mid-formula (the search polls it); a canceled
// attempt returns an error matching synerr.ErrCanceled. Each completed
// formula is also reported to the tracer carried by ctx, if any.
func Attempt(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, m int, opt SolveOptions) ([][]sg.Phase, FormulaStats, error) {
	opt = opt.withDefaults()
	start := time.Now()
	opt.Chain.bind(g)
	incr := opt.Incr
	if incr == nil {
		incr = NewChainSolver()
	}
	if opt.Cache == nil {
		cols, stats, _, err := incr.solve(ctx, g, conf, m, opt, start)
		return cols, stats, err
	}

	key := modcache.Key{
		Layout:        sg.SignatureOf(g, conf),
		M:             m,
		ExpandXor:     opt.ExpandXor,
		MaxBacktracks: int(opt.MaxBacktracks),
		WarmHash:      opt.Chain.Hash(),
	}
	var missStats FormulaStats
	entry, hit, err := opt.Cache.Do(ctx, key, func() (*modcache.Entry, error) {
		cols, stats, norm, err := incr.solve(ctx, g, conf, m, opt, start)
		if err != nil {
			return nil, err
		}
		missStats = stats
		return &modcache.Entry{
			Cols: cols, Signals: stats.Signals, Vars: stats.Vars,
			Clauses: stats.Clauses, Literals: stats.Literals,
			Status: stats.Status, Warm: norm,
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
		SolveTime: time.Since(start), Cached: true,
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

// recordFormula accumulates the formula's size and the search
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
		Duration: st.SolveTime,
	})
}
