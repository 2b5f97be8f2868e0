package core

import (
	"context"
	"errors"
	"fmt"

	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
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
// satisfies its CSC constraints with the paper's Figure 4 loop on the
// quotient (csc.Insert: joint formulas at the lower bound and one above,
// then greedy insertion, at most maxSignals signals), and propagates
// the new assignments back to g through the cover relation (Figure 5).
// The graph g is extended in place.
//
// A module whose greedy tail runs out of separable pairs or of signals
// returns an error matching synerr.ErrModuleUnsolvable (callers widen
// the input set and retry); budget exhaustion matches
// synerr.ErrBacktrackLimit and a canceled ctx synerr.ErrCanceled,
// neither of which widening can help.
func PartitionSAT(ctx context.Context, g *sg.Graph, is InputSet, opt Options) (*PartitionResult, error) {
	opt = opt.withDefaults()
	name := g.Base[is.Output].Name
	gw := withStateSigs(g, is.StateSigs)
	merged, ok := gw.Quotient(is.Silenced)
	if !ok {
		return nil, fmt.Errorf("core: inconsistent phase join for output %q's modular graph", name)
	}
	res := &PartitionResult{
		MergedStates: merged.Graph.NumStates(),
		MergedEdges:  len(merged.Graph.Edges),
	}
	if mc := metrics.From(ctx); mc != nil {
		mc.Add(metrics.Modules, 1)
		mc.Add(metrics.SGStatesMerged, int64(res.MergedStates))
	}
	implied := merged.ImpliedOf(is.Output)
	conf := sg.OutputConflicts(merged.Graph, implied)
	res.Ncsc, res.Lb = conf.N(), conf.LowerBound
	if conf.N() == 0 {
		return res, nil
	}

	q := merged.Graph
	before := len(q.StateSigs)
	jointCap := min(max(conf.LowerBound, 1)+1, maxSignals)
	ir, err := csc.Insert(ctx, q, conf, func() *sg.Conflicts { return sg.OutputConflicts(q, implied) }, jointCap, maxSignals, opt.SAT)
	res.Formulas = ir.Formulas
	if err != nil {
		if errors.Is(err, synerr.ErrConflictsPersist) {
			return res, fmt.Errorf("core: no modular solution for %q: %w: %w", name, synerr.ErrModuleUnsolvable, err)
		}
		return res, fmt.Errorf("core: modular graph for %q: %w", name, err)
	}
	// Propagate (Figure 5): every state of g takes the phase of its
	// cover class, under g's own signal numbering.
	for _, ss := range q.StateSigs[before:] {
		phases := make([]sg.Phase, len(g.States))
		for s := range g.States {
			phases[s] = ss.Phases[merged.Cover[s]]
		}
		g.StateSigs = append(g.StateSigs, sg.StateSignal{
			Name:   fmt.Sprintf("%s%d", opt.SAT.NamePrefix, len(g.StateSigs)),
			Phases: phases,
		})
	}
	res.NewSignals = ir.Inserted
	return res, nil
}
