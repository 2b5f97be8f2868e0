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
	"time"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

// Options configures the baseline.
type Options struct {
	MaxBacktracks int64 // per SAT instance (default csc.DefaultMaxBacktracks)
	MaxSignals    int   // total insertion cap (default 10)
	NamePrefix    string
}

func (o Options) withDefaults() Options {
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = csc.DefaultMaxBacktracks
	}
	if o.MaxSignals == 0 {
		o.MaxSignals = 10
	}
	if o.NamePrefix == "" {
		o.NamePrefix = "st"
	}
	return o
}

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
// method expensive without decomposition.
//
// Budget exhaustion or an insertion cap reached with conflicts left
// returns an error matching synerr.ErrBacktrackLimit (Table 1 reports
// this method aborting on some STGs); a canceled ctx returns one
// matching synerr.ErrCanceled. Both come with the partial Result.
func Solve(ctx context.Context, g *sg.Graph, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	res := &Result{}
	solveOne := func(target *sg.Conflicts) (*csc.Encoding, sat.Result, error) {
		enc, err := csc.Encode(g, target, 1, csc.Options{})
		if err != nil {
			return nil, sat.Result{}, err
		}
		start := time.Now()
		r := sat.Solve(enc.F, sat.Limits{MaxBacktracks: opt.MaxBacktracks, Ctx: ctx})
		search := time.Since(start)
		st := csc.FormulaStats{
			Signals: 1, Vars: enc.F.NumVars, Clauses: enc.F.NumClauses(),
			Literals: enc.F.NumLiterals(), Status: r.Status, SolveTime: search,
			SearchTime: search, Engine: "dpll",
		}
		if r.Status == sat.Canceled {
			return nil, r, synerr.Canceled(ctx.Err())
		}
		res.Formulas = append(res.Formulas, st)
		trace.Formula(ctx, trace.FormulaEvent{
			Signals: 1, Vars: st.Vars, Clauses: st.Clauses, Literals: st.Literals,
			Status: st.Status.String(), Engine: st.Engine, Duration: st.SolveTime,
		})
		return enc, r, nil
	}
	for res.Inserted < opt.MaxSignals {
		conf := sg.Analyze(g)
		if conf.N() == 0 {
			return res, nil
		}
		target := largestGroup(g, conf)
		enc, r, err := solveOne(target)
		if err != nil {
			return res, err
		}
		switch r.Status {
		case sat.BacktrackLimit:
			return res, fmt.Errorf("lavagno: signal %d: %w", res.Inserted, synerr.ErrBacktrackLimit)
		case sat.Unsat:
			// One signal cannot split this group under the global
			// constraints; fall back to separating only its first pair.
			if len(target.CSC) == 1 {
				return res, fmt.Errorf("lavagno: conflict pair %v unresolvable with one signal: %w", target.CSC[0], synerr.ErrConflictsPersist)
			}
			single := &sg.Conflicts{CSC: target.CSC[:1], USC: append(target.USC, target.CSC[1:]...)}
			enc, r, err = solveOne(single)
			if err != nil {
				return res, err
			}
			if r.Status != sat.Sat {
				return res, fmt.Errorf("lavagno: signal %d single-pair fallback: %w", res.Inserted, synerr.ErrBacktrackLimit)
			}
		}
		if r.Status == sat.Sat {
			cols := enc.DecodePhases(r.Model)
			csc.Tighten(g, target, cols)
			col := cols[0]
			g.StateSigs = append(g.StateSigs, sg.StateSignal{
				Name:   fmt.Sprintf("%s%d", opt.NamePrefix, len(g.StateSigs)),
				Phases: col,
			})
			res.Inserted++
		}
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		// Insertion cap exhausted with conflicts left: report the run as
		// aborted (Table 1 reports this method failing on some STGs).
		return res, fmt.Errorf("lavagno: %d conflicts remain at the %d-signal cap: %w", conf.N(), opt.MaxSignals, synerr.ErrBacktrackLimit)
	}
	return res, nil
}

// largestGroup restricts a conflict analysis to the pairs of the code
// group containing the most conflicting pairs; the remaining pairs join
// the USC side so the inserted signal stays well defined everywhere.
func largestGroup(g *sg.Graph, conf *sg.Conflicts) *sg.Conflicts {
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
