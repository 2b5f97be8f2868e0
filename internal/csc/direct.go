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

// SolveOptions configures direct CSC solving.
type SolveOptions struct {
	Encoding Options
	Engine   Engine
	// MaxBacktracks bounds the DPLL search per formula (default
	// DefaultMaxBacktracks; the paper's direct method aborts at a
	// backtrack limit on mr0/mmu0).
	MaxBacktracks int64
	// MaxSignals bounds state-signal insertion (default 8).
	MaxSignals int
	// NamePrefix names inserted signals (default "csc").
	NamePrefix string
	// StartSignals overrides the initial m (default: the conflict lower
	// bound, at least 1).
	StartSignals int
	// BDDNodeLimit bounds the BDD engine (default one million nodes).
	BDDNodeLimit int
	// Cache, when non-nil, answers repeated solves of signature-equal
	// problems from the module solve cache (see modcache). Hits are
	// bit-identical replays of the producing solve.
	Cache *modcache.Cache
	// Chain, when non-nil, carries reusable learned clauses across the
	// related formulas of one solve chain: DPLL searches are seeded
	// with the chain's clauses and export their own stable learnings
	// back (see WarmChain).
	Chain *WarmChain
	// Incr, when non-nil, solves plain-DPLL attempts on one persistent
	// assumption-based incremental solver instead of re-encoding every
	// formula (see ChainSolver). Results are bit-identical either way;
	// only the work per attempt changes. The BDD engine's DPLL fallback
	// and the ExpandXor encoding re-encode.
	Incr *ChainSolver
	// NoIncremental keeps the re-encode path even where an Incr solver
	// would be created by default (ablation and parity testing).
	NoIncremental bool
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = DefaultMaxBacktracks
	}
	if o.MaxSignals == 0 {
		o.MaxSignals = 8
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
	// reports the time to the hit. (internal/lavagno, which calls the
	// engine itself, records its search time here.)
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
	if opt.Incr == nil && !opt.NoIncremental {
		opt.Incr = NewChainSolver()
	}
	res := &Result{}
	conf := sg.Analyze(g)
	if conf.N() == 0 {
		return res, nil
	}
	m := conf.LowerBound
	if opt.StartSignals > 0 {
		m = opt.StartSignals
	}
	if m < 1 {
		m = 1
	}
	// Joint insertion at the lower bound and one above (Figure 4's while
	// loop); beyond that the joint formulas' UNSAT proofs blow up on
	// cascaded-signal instances, so switch to greedy incremental
	// insertion.
	jointCap := m + 1
	if jointCap > opt.MaxSignals {
		jointCap = opt.MaxSignals
	}
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
		func() *sg.Conflicts { return sg.Analyze(g) }, opt, opt.MaxSignals)
	res.Formulas = append(res.Formulas, stats...)
	res.Inserted += inserted
	if err != nil {
		return res, err
	}
	return res, nil
}
