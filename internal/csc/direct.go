package csc

import (
	"context"
	"fmt"
	"time"

	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// Engine selects the SAT engine used to solve CSC formulas.
type Engine int

// The engine values are explicit because int(Engine) is part of the
// module-cache key (modcache.Key.Engine), which disk and peer records
// are matched on. A number retired with its engine (1 was a local-search
// solver, 3 a race of DPLL against it) is never reused, so a record an
// older build wrote can never match a different engine.
const (
	// DPLL is the branch-and-bound solver (default; the role of the SIS
	// SAT program in the paper's experiments).
	DPLL Engine = 0
	// BDD conjoins all constraints into a binary decision diagram and
	// extracts the minimum-excitation model (the paper's closing pointer
	// to a BDD-based approach with further area reduction). It falls
	// back to DPLL when the diagram exceeds the node limit.
	BDD Engine = 2
)

// DefaultMaxBacktracks is the SAT backtrack budget per formula when
// none is set: the default of every engine and method.
const DefaultMaxBacktracks = 2000000

// maxDirectSignals bounds the direct method's state-signal insertion.
const maxDirectSignals = 8

// SolveOptions configures CSC solving: one Attempt, the incremental
// insertion loop and the direct whole-graph method.
type SolveOptions struct {
	Engine Engine
	// ExpandXor generates the paper-style direct CNF expansion of the
	// "codes must differ" constraints (4^m clauses per conflicting pair)
	// instead of the default Tseitin encoding with auxiliary difference
	// variables. Used for clause-growth experiments.
	ExpandXor bool
	// MaxBacktracks bounds the DPLL search per formula (default
	// DefaultMaxBacktracks; the paper's direct method aborts at a
	// backtrack limit on mr0/mmu0).
	MaxBacktracks int64
	// Cache, when non-nil, answers repeated solves of signature-equal
	// problems from the module solve cache (see modcache). Hits are
	// bit-identical replays of the producing solve.
	Cache *modcache.Cache
	// Chain, when non-nil, carries reusable learned clauses across the
	// related formulas of one solve chain: DPLL searches are seeded
	// with the chain's clauses and export their own stable learnings
	// back (see WarmChain).
	Chain *WarmChain
	// Incr, when non-nil, is the chain's incremental solver: every DPLL
	// search of the chain runs on it (see ChainSolver). Attempt makes a
	// one-off solver when it is nil.
	Incr *ChainSolver
	// NamePrefix names inserted signals (default "csc").
	NamePrefix string

	// bddNodeLimit overrides the BDD engine's node limit (0: the pool's
	// default of one million nodes); tests set it to force the DPLL
	// fallback.
	bddNodeLimit int
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = DefaultMaxBacktracks
	}
	if o.NamePrefix == "" {
		o.NamePrefix = "csc"
	}
	return o
}

// FormulaStats records the size of one solved SAT instance.
type FormulaStats struct {
	Signals  int
	Vars     int
	Clauses  int
	Literals int
	Status   sat.Status
	// SolveTime is the attempt's time: from Attempt's entry, before the
	// module-cache key is built, to the end of the search, so it also
	// covers key hashing, encoding and the solver load. A cache hit
	// reports the time to the hit.
	SolveTime time.Duration
	// SearchTime is the time inside the engine calls alone (the DPLL
	// search or the BDD solve, plus the DPLL fallback of a BDD solve
	// that hit its node limit); 0 on a cache hit.
	SearchTime time.Duration
	// Engine names the engine that produced Status ("dpll" or "bdd").
	Engine string
	// Cached reports that the outcome was replayed from the module
	// solve cache instead of being computed.
	Cached bool
}

// Result is the outcome of direct CSC constraint satisfaction.
type Result struct {
	// Inserted is the number of state signals added to the graph.
	Inserted int
	// Formulas records every SAT instance attempted, in order.
	Formulas []FormulaStats
}

// Solve resolves all CSC conflicts of g by inserting state signals found
// from a single whole-graph SAT formula — the direct, no-decomposition
// method of Vanbekbergen et al. The graph is modified in place (phase
// columns are appended). Following the paper's Figure 4 loop, m starts
// at the conflict lower bound and grows on UNSAT.
//
// A backtrack-budget exhaustion returns an error matching
// synerr.ErrBacktrackLimit (alongside the partial Result); a canceled
// ctx returns one matching synerr.ErrCanceled.
func Solve(ctx context.Context, g *sg.Graph, opt SolveOptions) (*Result, error) {
	opt = opt.withDefaults()
	if opt.Chain == nil {
		opt.Chain = NewWarmChain()
	}
	opt.Chain.Rebind(g)
	if opt.Incr == nil {
		opt.Incr = NewChainSolver()
	}
	res := &Result{}
	conf := sg.Analyze(g)
	if conf.N() == 0 {
		return res, nil
	}
	m := conf.LowerBound
	if m < 1 {
		m = 1
	}
	// Joint insertion at the lower bound and one above (Figure 4's while
	// loop); beyond that the joint formulas' UNSAT proofs blow up on
	// cascaded-signal instances, so switch to greedy incremental
	// insertion.
	jointCap := min(m+1, maxDirectSignals)
	for ; m <= jointCap; m++ {
		cols, stats, err := Attempt(ctx, g, conf, m, opt)
		if err != nil {
			return res, err
		}
		res.Formulas = append(res.Formulas, stats)
		switch stats.Status {
		case sat.Sat:
			for _, col := range cols {
				g.StateSigs = append(g.StateSigs, sg.StateSignal{
					Name:   fmt.Sprintf("%s%d", opt.NamePrefix, len(g.StateSigs)),
					Phases: col,
				})
			}
			res.Inserted += m
			if left := sg.Analyze(g); left.N() != 0 {
				return res, fmt.Errorf("csc: %d conflicts remain after a satisfying assignment", left.N())
			}
			return res, nil
		case sat.BacktrackLimit:
			return res, fmt.Errorf("csc: joint %d-signal formula: %w", m, synerr.ErrBacktrackLimit)
		case sat.Unsat:
			// Grow m, then fall through to incremental insertion.
		}
	}
	inserted, stats, err := InsertIncremental(ctx, g,
		func() *sg.Conflicts { return sg.Analyze(g) }, opt, maxDirectSignals)
	res.Formulas = append(res.Formulas, stats...)
	res.Inserted += inserted
	if err != nil {
		return res, err
	}
	return res, nil
}
