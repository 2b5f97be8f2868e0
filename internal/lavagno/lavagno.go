// Package lavagno provides the second baseline of the paper's Table 1: a
// state-assignment flow in the spirit of Lavagno, Moon, Brayton and
// Sangiovanni-Vincentelli (DAC'92). Their algorithm works on the whole
// state graph with no decomposition and inserts state signals one at a
// time, each obtained from a global bipartition of the state graph that
// separates coding conflicts while respecting consistency. We reproduce
// that profile: per iteration one new signal is found by a whole-graph
// SAT instance targeting the largest remaining conflict group, repeated
// until complete state coding holds. Compared with the modular method
// this spends full-graph effort per signal (slower on large graphs) and
// usually yields equal-or-more signals with no support reduction.
package lavagno

import (
	"context"
	"fmt"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// maxSignals is the method's total insertion cap.
const maxSignals = 10

// Result reports the insertion run.
type Result struct {
	Inserted int
	Formulas []csc.FormulaStats
}

// Solve inserts state signals one at a time until the graph satisfies
// CSC. Each iteration builds a whole-graph SAT instance whose separation
// obligation is the largest conflict group (all conflicting pairs sharing
// the most popular code); consistency, semi-modularity and USC
// constraints still span the entire graph, which is what makes the
// method expensive without decomposition. Every instance is one
// csc.Attempt under the run's engine, encoding and backtrack budget
// (opt's Engine, ExpandXor and MaxBacktracks), with no solve cache and
// no warm chain, all on one chain solver (opt.Incr, or a new one), so
// the run's metrics and trace see every formula.
//
// Budget exhaustion or an insertion cap reached with conflicts left
// returns an error matching synerr.ErrBacktrackLimit (Table 1 reports
// this method aborting on some STGs); a canceled ctx returns one
// matching synerr.ErrCanceled. Both come with the partial Result.
func Solve(ctx context.Context, g *sg.Graph, opt csc.SolveOptions) (*Result, error) {
	return solve(ctx, g, opt, maxSignals)
}

// solve is Solve with the insertion cap as a parameter.
func solve(ctx context.Context, g *sg.Graph, opt csc.SolveOptions, signalCap int) (*Result, error) {
	res := &Result{}
	opt.Cache, opt.Chain = nil, nil
	if opt.Incr == nil {
		opt.Incr = csc.NewChainSolver()
	}
	solveOne := func(target *sg.Conflicts) ([][]sg.Phase, sat.Status, error) {
		cols, st, err := csc.Attempt(ctx, g, target, 1, opt)
		if err != nil {
			return nil, 0, err
		}
		res.Formulas = append(res.Formulas, st)
		return cols, st.Status, nil
	}
	for res.Inserted < signalCap {
		conf := sg.Analyze(g)
		if conf.N() == 0 {
			return res, nil
		}
		target := csc.LargestGroup(g, conf)
		cols, status, err := solveOne(target)
		if err != nil {
			return res, err
		}
		switch status {
		case sat.BacktrackLimit:
			return res, fmt.Errorf("lavagno: signal %d: %w", res.Inserted, synerr.ErrBacktrackLimit)
		case sat.Unsat:
			// One signal cannot split this group under the global
			// constraints; fall back to separating only its first pair.
			if len(target.CSC) == 1 {
				return res, fmt.Errorf("lavagno: conflict pair %v unresolvable with one signal: %w", target.CSC[0], synerr.ErrConflictsPersist)
			}
			single := &sg.Conflicts{CSC: target.CSC[:1], USC: append(target.USC, target.CSC[1:]...)}
			cols, status, err = solveOne(single)
			if err != nil {
				return res, err
			}
			if status != sat.Sat {
				return res, fmt.Errorf("lavagno: signal %d single-pair fallback: %w", res.Inserted, synerr.ErrBacktrackLimit)
			}
		}
		g.StateSigs = append(g.StateSigs, sg.StateSignal{
			Name:   fmt.Sprintf("st%d", len(g.StateSigs)),
			Phases: cols[0],
		})
		res.Inserted++
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		// Insertion cap exhausted with conflicts left: report the run as
		// aborted (Table 1 reports this method failing on some STGs).
		return res, fmt.Errorf("lavagno: %d conflicts remain at the %d-signal cap: %w", conf.N(), signalCap, synerr.ErrBacktrackLimit)
	}
	return res, nil
}
