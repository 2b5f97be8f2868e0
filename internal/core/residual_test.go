package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// TestResidualSolveNeeded pins why the residual whole-graph pass stays
// although it fires on none of the census inputs (TestMechanismCensus):
// expansion refinement cannot stand in for it. On alex-nonfc with the
// most-conflicted output's module left unsolved (partition_sat on the
// other outputs only), the full graph keeps CSC conflicts; expansion
// alone then fails, its greedy tail finding no conflict pair that one
// signal separates, while the residual solve (csc.Solve) followed by
// expansion completes with no conflict.
func TestResidualSolveNeeded(t *testing.T) {
	ctx := context.Background()
	spec, err := bench.Load("alex-nonfc")
	if err != nil {
		t.Fatal(err)
	}
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// runModules' order: most conflicted first, ties by name.
	outs := nonInputsByName(full)
	counts := make(map[int]int, len(outs))
	for _, o := range outs {
		counts[o], _ = outputStats(full, o)
	}
	sort.SliceStable(outs, func(i, j int) bool { return counts[outs[i]] > counts[outs[j]] })
	for _, o := range outs[1:] {
		if _, err := PartitionSAT(ctx, full, DetermineInputSet(full, spec, o), Options{}); err != nil {
			t.Fatalf("module %s: %v", full.Base[o].Name, err)
		}
	}
	if n := sg.Analyze(full).N(); n != 3 {
		t.Fatalf("%d CSC conflicts left with %s's module unsolved, want 3", n, full.Base[outs[0]].Name)
	}

	alone := *full
	alone.StateSigs = append([]sg.StateSignal(nil), full.StateSigs...)
	_, _, _, err = ExpandToCSC(ctx, &alone, Options{})
	if !errors.Is(err, synerr.ErrConflictsPersist) || !strings.Contains(err.Error(), "no conflict pair separable by a single signal") {
		t.Fatalf("expansion without the residual solve: %v, want no separable pair (%v)", err, synerr.ErrConflictsPersist)
	}

	if _, err := csc.Solve(ctx, full, csc.SolveOptions{}); err != nil {
		t.Fatalf("residual solve: %v", err)
	}
	view, _, _, err := ExpandToCSC(ctx, full, Options{})
	if err != nil {
		t.Fatalf("expansion after the residual solve: %v", err)
	}
	if n := sg.AnalyzeStream(view).N(); n != 0 {
		t.Fatalf("%d conflicts after the residual solve and expansion", n)
	}
}
