package core

import (
	"context"
	"errors"
	"fmt"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

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
func PartitionSAT(ctx context.Context, g *sg.Graph, is InputSet, opt Options) (*PartitionResult, error) {
	opt = opt.withDefaults()
	sopt := opt.SAT
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
	if sopt.Chain == nil {
		sopt.Chain = csc.NewWarmChain()
	}
	sopt.Chain.Rebind(merged.Graph)
	if sopt.Incr == nil {
		sopt.Incr = csc.NewChainSolver()
	}

	propagate := func(col []sg.Phase) {
		phases := make([]sg.Phase, len(g.States))
		for s := range g.States {
			phases[s] = col[merged.Cover[s]]
		}
		g.StateSigs = append(g.StateSigs, sg.StateSignal{
			Name:   fmt.Sprintf("%s%d", sopt.NamePrefix, len(g.StateSigs)),
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
	jointCap := min(m+1, maxSignals)
	for ; m <= jointCap; m++ {
		cols, stats, err := csc.Attempt(ctx, merged.Graph, conf, m, sopt)
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
		sopt, maxSignals)
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
