package csc

import (
	"context"
	"fmt"

	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// Insert is the paper's Figure 4 (partition_sat's insertion loop) on g,
// the one loop that inserts the state signals of the modular and direct
// methods and of expansion refinement: joint
// formulas for m = max(L_b, 1) … jointCap, growing m on UNSAT, where
// conf is the current conflict analysis of g and L_b its lower bound;
// then, when no joint formula is satisfiable, greedy single-signal
// insertion (insertIncremental) of at most maxSignals signals, with
// refresh re-analysing g after each. New columns are appended to g,
// named opt.NamePrefix followed by their index.
//
// Every formula of one call is a solve chain on g: Insert gives opt a
// warm chain and a chain solver when it has none (WithChain), so a
// caller passes its own only to span several calls on one graph.
//
// Budget exhaustion returns an error matching synerr.ErrBacktrackLimit,
// a greedy tail that runs out of separable pairs or of signals one
// matching synerr.ErrConflictsPersist; both come with the inserted count
// and formula stats accumulated so far in the always non-nil Result.
func Insert(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, refresh func() *sg.Conflicts, jointCap, maxSignals int, opt SolveOptions) (*Result, error) {
	opt = opt.withDefaults().WithChain()
	res := &Result{}
	for m := max(conf.LowerBound, 1); m <= jointCap; m++ {
		cols, stats, err := Attempt(ctx, g, conf, m, opt)
		if err != nil {
			return res, err
		}
		res.Formulas = append(res.Formulas, stats)
		switch stats.Status {
		case sat.Sat:
			for _, col := range cols {
				appendSignal(g, opt.NamePrefix, col)
			}
			res.Inserted = m
			return res, nil
		case sat.BacktrackLimit:
			return res, fmt.Errorf("csc: joint %d-signal formula: %w", m, synerr.ErrBacktrackLimit)
		}
	}
	// Beyond the joint sizes the formulas' UNSAT proofs blow up on
	// cascaded-signal instances, so switch to greedy insertion.
	inserted, stats, err := insertIncremental(ctx, g, refresh, opt, maxSignals)
	res.Inserted = inserted
	res.Formulas = append(res.Formulas, stats...)
	return res, err
}

// WithChain returns o with a new warm chain and a new chain solver in
// place of nil ones: the state a solve chain keeps across its formulas.
func (o SolveOptions) WithChain() SolveOptions {
	if o.Chain == nil {
		o.Chain = NewWarmChain()
	}
	if o.Incr == nil {
		o.Incr = NewChainSolver()
	}
	return o
}

// appendSignal appends col to g as a state signal named prefix followed
// by its index.
func appendSignal(g *sg.Graph, prefix string, col []sg.Phase) {
	g.StateSigs = append(g.StateSigs, sg.StateSignal{
		Name:   fmt.Sprintf("%s%d", prefix, len(g.StateSigs)),
		Phases: col,
	})
}

// insertIncremental is Insert's greedy tail: it resolves conflicts one
// state signal at a time. Each iteration solves a single-signal (m=1)
// instance targeting as many of the remaining conflict pairs as
// possible — first all of them, then the largest same-code group, then
// individual pairs — inserts the column, and re-evaluates. Greedy
// insertion sidesteps the joint-m cliff: some specifications
// (double-pulse branches) need CASCADED signals, where separating one
// pair is only possible after a companion signal has split a blocking
// same-code pair; a joint encoding must discover the whole cascade
// inside one exponentially symmetric formula, while the greedy loop
// finds it signal by signal. refresh re-analyses the graph after each
// insertion; maxSignals bounds the loop.
func insertIncremental(ctx context.Context, g *sg.Graph, refresh func() *sg.Conflicts, opt SolveOptions, maxSignals int) (inserted int, stats []FormulaStats, err error) {
	for inserted < maxSignals {
		conf := refresh()
		if conf.N() == 0 {
			return inserted, stats, nil
		}
		candidates := []*sg.Conflicts{conf, LargestGroup(g, conf)}
		for _, p := range conf.CSC {
			candidates = append(candidates, restrictTo(conf, p))
		}
		progressed := false
		for _, cand := range candidates {
			cols, st, aerr := Attempt(ctx, g, cand, 1, opt)
			if aerr != nil {
				return inserted, stats, aerr
			}
			stats = append(stats, st)
			switch st.Status {
			case sat.Sat:
				appendSignal(g, opt.NamePrefix, cols[0])
				inserted++
				progressed = true
			case sat.BacktrackLimit:
				return inserted, stats, fmt.Errorf("csc: incremental signal %d: %w", inserted, synerr.ErrBacktrackLimit)
			}
			if progressed {
				break
			}
		}
		if !progressed {
			return inserted, stats, fmt.Errorf("csc: no conflict pair separable by a single signal (%d remain): %w", conf.N(), synerr.ErrConflictsPersist)
		}
	}
	if refresh().N() != 0 {
		return inserted, stats, fmt.Errorf("csc: conflicts remain after %d incremental signals: %w", maxSignals, synerr.ErrConflictsPersist)
	}
	return inserted, stats, nil
}

// LargestGroup restricts conf to the pairs of the code group with the
// most conflicting pairs; the rest join the USC side so the inserted
// signal stays well defined everywhere.
func LargestGroup(g *sg.Graph, conf *sg.Conflicts) *sg.Conflicts {
	count := make(map[uint64]int)
	for _, p := range conf.CSC {
		count[g.FullCode(p.A)]++
	}
	var bestCode uint64
	best := -1
	for code, n := range count {
		if n > best || (n == best && code < bestCode) {
			bestCode, best = code, n
		}
	}
	out := &sg.Conflicts{LowerBound: 1}
	for _, p := range conf.CSC {
		if g.FullCode(p.A) == bestCode {
			out.CSC = append(out.CSC, p)
		} else {
			out.USC = append(out.USC, p)
		}
	}
	out.USC = append(out.USC, conf.USC...)
	return out
}

// restrictTo keeps a single pair as the separation obligation.
func restrictTo(conf *sg.Conflicts, p sg.Pair) *sg.Conflicts {
	out := &sg.Conflicts{LowerBound: 1, CSC: []sg.Pair{p}}
	for _, q := range conf.CSC {
		if q != p {
			out.USC = append(out.USC, q)
		}
	}
	out.USC = append(out.USC, conf.USC...)
	return out
}
