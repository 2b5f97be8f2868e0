package core

import (
	"context"
	"errors"
	"fmt"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// SATOptions configures the constraint-satisfaction side of modular
// synthesis.
type SATOptions struct {
	Engine        csc.Engine
	Encoding      csc.Options
	MaxBacktracks int64 // per formula; default csc.DefaultMaxBacktracks
	MaxSignals    int   // per modular graph; default 6
	NamePrefix    string
	BDDNodeLimit  int // BDD engine budget; default one million nodes
	// Workers bounds the worker pool for the conflict scans inside the
	// partition pass (0 = GOMAXPROCS, 1 = sequential); it has no effect
	// on results, only on wall-clock.
	Workers int
	// Cache, when non-nil, is the module solve cache shared across
	// modules (and runs): signature-equal solves are answered by
	// bit-identical replays instead of fresh searches.
	Cache *modcache.Cache
	// Chain, when non-nil, carries reusable learned clauses across the
	// related SAT formulas of one module's solve chain. PartitionSAT
	// creates one per call when unset; solveModule shares one across
	// the widening fallbacks.
	Chain *csc.WarmChain
	// Incr, when non-nil, solves the chain's plain-DPLL formulas on one
	// persistent incremental solver (see csc.ChainSolver). Created
	// alongside Chain when unset, unless NoIncremental is set.
	Incr *csc.ChainSolver
	// NoIncremental forces the re-encode path (ablation and parity
	// testing); results are bit-identical either way.
	NoIncremental bool
}

// SolveOptions adapts SATOptions to the csc solve interface: every
// csc solve of the pipeline, the direct baseline's included, takes its
// options from here.
func (o SATOptions) SolveOptions() csc.SolveOptions {
	return csc.SolveOptions{
		Engine:        o.Engine,
		Encoding:      o.Encoding,
		MaxBacktracks: o.MaxBacktracks,
		NamePrefix:    o.NamePrefix,
		BDDNodeLimit:  o.BDDNodeLimit,
		Cache:         o.Cache,
		Chain:         o.Chain,
		Incr:          o.Incr,
		NoIncremental: o.NoIncremental,
	}
}

func (o SATOptions) withDefaults() SATOptions {
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = csc.DefaultMaxBacktracks
	}
	if o.MaxSignals == 0 {
		o.MaxSignals = 6
	}
	if o.NamePrefix == "" {
		o.NamePrefix = "csc"
	}
	return o
}

// PartitionResult reports one partition_sat invocation.
type PartitionResult struct {
	MergedStates int
	MergedEdges  int
	Ncsc         int
	Lb           int
	NewSignals   int
	Formulas     []csc.FormulaStats
}

// PartitionSAT derives the modular state graph Σ_o for the input set,
// satisfies its CSC constraints with a small SAT formula (growing the
// state-signal count from the lower bound on UNSAT, the paper's
// Figure 4), and propagates the new assignments back to g through the
// cover relation (Figure 5). The graph g is extended in place.
//
// A module whose constraints cannot be satisfied within the signal cap
// returns an error matching synerr.ErrModuleUnsolvable (callers widen
// the input set and retry); budget exhaustion matches
// synerr.ErrBacktrackLimit and a canceled ctx synerr.ErrCanceled, both
// of which are surfaced unwrapped because widening cannot help them.
func PartitionSAT(ctx context.Context, g *sg.Graph, is InputSet, opt SATOptions) (*PartitionResult, error) {
	opt = opt.withDefaults()
	gw := withStateSigs(g, is.StateSigs)
	merged, ok := gw.Quotient(is.Silenced)
	if !ok {
		return nil, fmt.Errorf("core: inconsistent phase join for output %q's modular graph", g.Base[is.Output].Name)
	}
	res := &PartitionResult{
		MergedStates: merged.Graph.NumStates(),
		MergedEdges:  len(merged.Graph.Edges),
	}
	if mc := metrics.From(ctx); mc != nil {
		mc.Add(metrics.Modules, 1)
		mc.Add(metrics.SGStatesMerged, int64(res.MergedStates))
	}
	conf := sg.OutputConflictsWorkers(merged.Graph, merged.ImpliedOf(is.Output), opt.Workers)
	res.Ncsc, res.Lb = conf.N(), conf.LowerBound
	if conf.N() == 0 {
		return res, nil
	}

	// One warm chain serves every formula solved on this quotient: the
	// joint widening loop below and the incremental insertions after
	// it. Rebind drops clauses carried over from a structurally
	// different quotient (a previous widening attempt of this module).
	if opt.Chain == nil {
		opt.Chain = csc.NewWarmChain()
	}
	opt.Chain.Rebind(merged.Graph)
	if opt.Incr == nil && !opt.NoIncremental {
		opt.Incr = csc.NewChainSolver()
	}

	propagate := func(col []sg.Phase) {
		phases := make([]sg.Phase, len(g.States))
		for s := range g.States {
			phases[s] = col[merged.Cover[s]]
		}
		g.StateSigs = append(g.StateSigs, sg.StateSignal{
			Name:   fmt.Sprintf("%s%d", opt.NamePrefix, len(g.StateSigs)),
			Phases: phases,
		})
	}

	// Joint insertion at the lower bound and one above (Figure 4), then
	// greedy incremental insertion for the cascaded cases a joint
	// formula cannot reach.
	m := conf.LowerBound
	if m < 1 {
		m = 1
	}
	jointCap := m + 1
	if jointCap > opt.MaxSignals {
		jointCap = opt.MaxSignals
	}
	for ; m <= jointCap; m++ {
		cols, stats, err := csc.Attempt(ctx, merged.Graph, conf, m, opt.SolveOptions())
		if err != nil {
			return res, err
		}
		res.Formulas = append(res.Formulas, stats)
		switch stats.Status {
		case sat.Sat:
			for _, col := range cols {
				propagate(col)
			}
			res.NewSignals = m
			return res, nil
		case sat.BacktrackLimit:
			return res, fmt.Errorf("core: modular graph for %q, joint %d-signal formula: %w",
				g.Base[is.Output].Name, m, synerr.ErrBacktrackLimit)
		}
	}
	implied := merged.ImpliedOf(is.Output)
	before := len(merged.Graph.StateSigs)
	inserted, stats, err := csc.InsertIncremental(ctx, merged.Graph,
		func() *sg.Conflicts { return sg.OutputConflictsWorkers(merged.Graph, implied, opt.Workers) },
		opt.SolveOptions(), opt.MaxSignals)
	res.Formulas = append(res.Formulas, stats...)
	if err != nil {
		if errors.Is(err, synerr.ErrBacktrackLimit) || errors.Is(err, synerr.ErrCanceled) {
			return res, err
		}
		return res, fmt.Errorf("core: no modular solution for %q: %w: %w",
			g.Base[is.Output].Name, synerr.ErrModuleUnsolvable, err)
	}
	for k := before; k < len(merged.Graph.StateSigs); k++ {
		propagate(merged.Graph.StateSigs[k].Phases)
	}
	res.NewSignals = inserted
	return res, nil
}
