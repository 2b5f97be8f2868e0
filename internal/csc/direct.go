package csc

import (
	"context"
	"fmt"
	"time"

	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// DefaultMaxBacktracks is the SAT backtrack budget per formula when
// none is set: the default of every method.
const DefaultMaxBacktracks = 2000000

// maxDirectSignals bounds the direct method's state-signal insertion.
const maxDirectSignals = 8

// SolveOptions configures CSC solving: one Attempt, the Figure 4
// insertion loop (Insert) and the direct whole-graph method.
type SolveOptions struct {
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
	// back (see WarmChain). Insert makes one per call when it is nil.
	Chain *WarmChain
	// Incr, when non-nil, is the chain's incremental solver: every DPLL
	// search of the chain runs on it (see ChainSolver). Insert makes
	// one per call, and Attempt a one-off one, when it is nil.
	Incr *ChainSolver
	// NamePrefix names inserted signals (default "csc").
	NamePrefix string
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
	// SearchTime is the time inside the DPLL search alone; 0 on a cache
	// hit.
	SearchTime time.Duration
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
// from whole-graph SAT formulas — the direct, no-decomposition method of
// Vanbekbergen et al. — with the paper's Figure 4 loop (Insert): joint
// formulas at the conflict lower bound and one above, then greedy
// insertion of up to maxDirectSignals signals. The graph is modified in
// place (phase columns are appended), and a joint model that leaves a
// conflict is an error.
//
// A backtrack-budget exhaustion returns an error matching
// synerr.ErrBacktrackLimit (alongside the partial Result); a canceled
// ctx returns one matching synerr.ErrCanceled.
func Solve(ctx context.Context, g *sg.Graph, opt SolveOptions) (*Result, error) {
	conf := sg.Analyze(g)
	if conf.N() == 0 {
		return &Result{}, nil
	}
	jointCap := min(max(conf.LowerBound, 1)+1, maxDirectSignals)
	res, err := Insert(ctx, g, conf, func() *sg.Conflicts { return sg.Analyze(g) }, jointCap, maxDirectSignals, opt)
	if err != nil {
		return res, err
	}
	if left := sg.Analyze(g); left.N() != 0 {
		return res, fmt.Errorf("csc: %d conflicts remain after a satisfying assignment", left.N())
	}
	return res, nil
}
