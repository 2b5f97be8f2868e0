package core

import (
	"context"
	"errors"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

// twoPulseCore: the canonical CSC-violating STG (codes 10 and 00 recur
// with different enabled outputs).
const twoPulseCore = `
.model tp
.inputs a
.outputs b
.graph
a+ b+
b+ b-
b- a-
a- b+/2
b+/2 b-/2
b-/2 a+
.marking { <b-/2,a+> }
.end
`

func twoPulseGraph(t *testing.T) *sg.Graph {
	t.Helper()
	spec, err := stg.ParseString(twoPulseCore)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExpandToCSCConflictsPersistIters: when conflicts survive every
// expansion round, the error matches synerr.ErrConflictsPersist and
// iters reports the rounds actually run — exactly the round cap, not
// one past it (the driver never starts a refinement it could not check).
func TestExpandToCSCConflictsPersistIters(t *testing.T) {
	g := twoPulseGraph(t)
	// The graph's CSC conflicts are unresolved: with a single round
	// allowed, no refinement may be attempted and expansion must fail.
	view, iters, fallback, err := ExpandToCSC(context.Background(), g, Options{expandIters: 1})
	if !errors.Is(err, synerr.ErrConflictsPersist) {
		t.Fatalf("conflicted graph must fail with ErrConflictsPersist, got %v", err)
	}
	if view != nil {
		t.Fatalf("failed expansion returned a view")
	}
	if iters != 1 {
		t.Fatalf("iters = %d, want exactly the round cap (1)", iters)
	}
	if len(fallback) != 0 {
		t.Fatalf("no refinement may run after the final round, got %d formulas", len(fallback))
	}
	if len(g.StateSigs) != 0 {
		t.Fatalf("failed expansion inserted %d signals into g", len(g.StateSigs))
	}
}

// TestExpandToCSCRefinementResolves: with rounds available, the
// counterexample-guided refinement inserts the separating signal and the
// reported iteration count covers the rounds actually run.
func TestExpandToCSCRefinementResolves(t *testing.T) {
	g := twoPulseGraph(t)
	view, iters, fallback, err := ExpandToCSC(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters != 2 {
		t.Fatalf("iters = %d, want 2 (one failed check, one clean re-expansion)", iters)
	}
	if len(fallback) == 0 {
		t.Fatalf("refinement solved no formula")
	}
	if conf := sg.AnalyzeStream(view); conf.N() != 0 {
		t.Fatalf("%d conflicts survive refinement", conf.N())
	}
}

// TestWideningFallbackChain (the runModules fallback): an over-restricted
// module whose quotient conflicts with itself is unsolvable at any signal
// count; solveModule must widen the input set until partition_sat
// succeeds, report the widening, and leave the propagated signal on the
// full graph.
func TestWideningFallbackChain(t *testing.T) {
	g := twoPulseGraph(t)
	bIdx, ok := g.SignalIndex("b")
	if !ok {
		t.Fatal("no signal b")
	}
	restricted := InputSet{Output: bIdx, Mask: 1 << bIdx, Silenced: g.Active &^ (1 << bIdx)}

	// The restricted module really is unsolvable (and for a structural
	// reason, not a budget one — the chain must not trigger on budgets).
	if _, err := PartitionSAT(context.Background(), g, restricted, Options{}); err == nil {
		t.Fatal("over-restricted module unexpectedly solvable")
	} else if errors.Is(err, synerr.ErrBacktrackLimit) || errors.Is(err, synerr.ErrCanceled) {
		t.Fatalf("restricted module failed for the wrong reason: %v", err)
	}

	is, pr, widened, err := solveModule(context.Background(), g, restricted, Options{})
	if err != nil {
		t.Fatalf("widening chain failed: %v", err)
	}
	if !widened {
		t.Fatal("successful fallback pass not reported as widened")
	}
	if is.Mask == restricted.Mask {
		t.Fatalf("input set not widened: %b", is.Mask)
	}
	if pr == nil || pr.NewSignals < 1 {
		t.Fatalf("widened pass inserted nothing: %+v", pr)
	}
	if len(g.StateSigs) != pr.NewSignals {
		t.Fatalf("%d signals propagated to the full graph, want %d", len(g.StateSigs), pr.NewSignals)
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		t.Fatalf("%d conflicts remain after the widened pass", conf.N())
	}
}

// TestWideningSkippedOnBacktrackLimit: budget exhaustion must surface
// unwidened — retrying a formula the budget could not finish on a larger
// graph only wastes the remaining budget.
func TestWideningSkippedOnBacktrackLimit(t *testing.T) {
	spec, err := bench.Load("mmu0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aIdx, _ := g.SignalIndex("a")
	is := DetermineInputSet(g, spec, aIdx)
	// One backtrack cannot finish output a's 5000-clause joint formula.
	_, _, widened, err := solveModule(context.Background(), g, is, Options{SAT: csc.SolveOptions{MaxBacktracks: 1}})
	if !errors.Is(err, synerr.ErrBacktrackLimit) {
		t.Fatalf("1-backtrack budget on mmu0 output a must exhaust, got %v", err)
	}
	if widened {
		t.Fatal("widening chain ran on a budget exhaustion")
	}
	if len(g.StateSigs) != 0 {
		t.Fatalf("aborted module inserted %d signals", len(g.StateSigs))
	}
}

// TestWideningSkippedOnCancel: a canceled context must stop the chain
// immediately with an error matching both ErrCanceled and the context's
// own error.
func TestWideningSkippedOnCancel(t *testing.T) {
	g := twoPulseGraph(t)
	bIdx, _ := g.SignalIndex("b")
	restricted := InputSet{Output: bIdx, Mask: 1 << bIdx, Silenced: g.Active &^ (1 << bIdx)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, widened, err := solveModule(ctx, g, restricted, Options{})
	if !errors.Is(err, synerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled chain returned %v", err)
	}
	if widened {
		t.Fatal("widening reported under cancellation")
	}
}
