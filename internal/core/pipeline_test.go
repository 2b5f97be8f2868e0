package core

import (
	"context"
	"errors"
	"strings"
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

// TestPartitionSATSelfConflict: a module whose input set silences the
// signals that tell its states apart merges states that imply both
// values of the output into one class. No state signal can repair that,
// so partition_sat fails (for a structural reason, not a budget one) and
// propagates nothing.
func TestPartitionSATSelfConflict(t *testing.T) {
	g := twoPulseGraph(t)
	bIdx, ok := g.SignalIndex("b")
	if !ok {
		t.Fatal("no signal b")
	}
	restricted := InputSet{Output: bIdx, Mask: 1 << bIdx, Silenced: g.Active &^ (1 << bIdx)}
	_, err := PartitionSAT(context.Background(), g, restricted, Options{})
	if err == nil {
		t.Fatal("self-conflicting module unexpectedly solvable")
	}
	if errors.Is(err, synerr.ErrBacktrackLimit) || errors.Is(err, synerr.ErrCanceled) || !strings.Contains(err.Error(), "conflicts with itself") {
		t.Fatalf("self-conflicting module failed for the wrong reason: %v", err)
	}
	if len(g.StateSigs) != 0 {
		t.Fatalf("failed module propagated %d signals", len(g.StateSigs))
	}
}

// TestPartitionSATBacktrackLimit: budget exhaustion surfaces as an
// error matching ErrBacktrackLimit, and the aborted module propagates
// nothing to the full graph.
func TestPartitionSATBacktrackLimit(t *testing.T) {
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
	_, err = PartitionSAT(context.Background(), g, is, Options{SAT: csc.SolveOptions{MaxBacktracks: 1}})
	if !errors.Is(err, synerr.ErrBacktrackLimit) {
		t.Fatalf("1-backtrack budget on mmu0 output a must exhaust, got %v", err)
	}
	if len(g.StateSigs) != 0 {
		t.Fatalf("aborted module inserted %d signals", len(g.StateSigs))
	}
}

// TestPartitionSATCanceled: a canceled context stops the module's solve
// with an error matching both ErrCanceled and the context's own error.
func TestPartitionSATCanceled(t *testing.T) {
	g := twoPulseGraph(t)
	bIdx, _ := g.SignalIndex("b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PartitionSAT(ctx, g, InputSet{Output: bIdx, Mask: g.Active}, Options{})
	if !errors.Is(err, synerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled module returned %v", err)
	}
}
