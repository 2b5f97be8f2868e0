// Package core implements the paper's contribution: modular partitioning
// for asynchronous circuit synthesis. For every output signal the
// complete state graph Σ is reduced to a small modular state graph Σ_o by
// greedily removing signals that o's logic does not need
// (determine_input_set, Fig. 2), CSC is satisfied on Σ_o by a small SAT
// formula (partition_sat, Fig. 4), and the new state-signal assignments
// are propagated back to Σ through the cover relation (propagate,
// Fig. 5). After all outputs are processed the state graph is expanded
// with the state-signal transitions and each output's logic is derived as
// a prime-irredundant two-level cover (modular_synthesis, Fig. 6).
package core

import (
	"sort"

	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// InputSet is the result of determine_input_set for one output: the
// minimal signal support found for the output's logic.
type InputSet struct {
	Output int // base signal index of the output
	// Mask marks the base signals kept (always including Output and its
	// immediate input set).
	Mask uint64
	// Silenced marks the base signals removed (Mask's complement over the
	// graph's active signals).
	Silenced uint64
	// StateSigs indexes the already-inserted state signals kept in the
	// modular graph.
	StateSigs []int
	// Ncsc and Lb are the CSC conflict count and state-signal lower bound
	// of the resulting modular state graph.
	Ncsc int
	Lb   int
}

// DetermineInputSet computes the input signal set of output o (a base
// signal index of g), following the paper's Figure 2: start from the
// immediate input set (signals with a direct causal arc to a transition
// of o in the STG), then greedily remove every other signal whose removal
// does not increase the CSC conflict count or the state-signal lower
// bound and does not break any state-signal phase join; finally drop the
// inserted state signals whose removal does not increase conflicts.
//
// Each candidate removal is judged by counts on the ε-classes it would
// merge (sg.Graph.QuotientCounts): no quotient graph or conflict-pair
// list is built until PartitionSAT builds the one module.
//
// Only input signals are removal candidates: every non-input signal
// stays in each module. Removing an output signal removes its edges —
// the only places an inserted signal's transitions may complete under
// the input-properness restriction — and measurably degrades the
// regularity (and hence the area) of the solutions found on
// concurrency-heavy graphs.
//
// The STG is needed only for the trigger relation. spec may be nil: the
// immediate input set is then empty, so every active input signal is a
// removal candidate.
func DetermineInputSet(g *sg.Graph, spec *stg.G, o int) InputSet {
	is := InputSet{Output: o}

	immediate := make(map[int]bool)
	if spec != nil {
		if si, ok := spec.SignalIndex(g.Base[o].Name); ok {
			for _, t := range spec.ImmediateInputs(si) {
				name := spec.Signals[t].Name
				if gi, ok := g.SignalIndex(name); ok {
					immediate[gi] = true
				}
			}
		}
	}

	// Baseline conflict stats on the full graph (no merging).
	implied1 := impliedOnes(g, o)
	nCSC, lb := g.OutputCounts(implied1)

	// Candidate removal order: by signal name.
	var candidates []int
	for i := range g.Base {
		if i == o || immediate[i] || g.Active&(1<<i) == 0 || !g.Base[i].Input {
			continue
		}
		candidates = append(candidates, i)
	}
	sort.Slice(candidates, func(a, b int) bool {
		return g.Base[candidates[a]].Name < g.Base[candidates[b]].Name
	})

	// A trial is rejected when a phase join fails (the signal carries a
	// state-signal edge) or a class implies both values of o (n2 < 0).
	var silenced uint64
	for _, si := range candidates {
		try := silenced | 1<<si
		n2, lb2, ok := g.QuotientCounts(try, implied1)
		if ok && n2 >= 0 && n2 <= nCSC && lb2 <= lb {
			silenced = try
			nCSC, lb = n2, lb2
		}
	}
	is.Silenced = silenced
	is.Mask = g.Active &^ silenced

	// State-signal pruning: keep only the inserted signals whose removal
	// would increase the modular conflict count.
	kept := make([]int, 0, len(g.StateSigs))
	for k := range g.StateSigs {
		kept = append(kept, k)
	}
	for k := range g.StateSigs {
		without := make([]int, 0, len(kept))
		for _, j := range kept {
			if j != k {
				without = append(without, j)
			}
		}
		n2, lb2, ok := withStateSigs(g, without).QuotientCounts(silenced, implied1)
		if ok && n2 >= 0 && n2 <= nCSC && lb2 <= lb {
			kept = without
			nCSC, lb = n2, lb2
		}
	}
	is.StateSigs = kept
	is.Ncsc, is.Lb = nCSC, lb
	return is
}

// withStateSigs returns a shallow working copy of g keeping only the
// state-signal columns listed in keep.
func withStateSigs(g *sg.Graph, keep []int) *sg.Graph {
	c := *g
	c.StateSigs = make([]sg.StateSignal, 0, len(keep))
	for _, k := range keep {
		c.StateSigs = append(c.StateSigs, g.StateSigs[k])
	}
	return &c
}

// impliedOnes returns output o's implied-value column on g: whether o's
// next value is 1 in each state.
func impliedOnes(g *sg.Graph, o int) []bool {
	col := make([]bool, len(g.States))
	for s := range col {
		col[s] = g.ImpliedValue(s, o) == 1
	}
	return col
}

// outputStats computes (N_csc, L_b) for output o directly on graph g.
func outputStats(g *sg.Graph, o int) (int, int) {
	return g.OutputCounts(impliedOnes(g, o))
}
