package csc

import (
	"context"
	"errors"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

func TestSolveBDDResolvesTwoPulse(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	cols, err := SolveBDD(context.Background(), g, conf, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || len(cols[0]) != g.NumStates() {
		t.Fatalf("shape wrong")
	}
	for _, e := range g.Edges {
		if !sg.EdgeCompatible(cols[0][e.From], cols[0][e.To]) {
			t.Fatalf("edge relation violated")
		}
	}
	for _, p := range conf.CSC {
		a, b := cols[0][p.A], cols[0][p.B]
		if !((a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0)) {
			t.Fatalf("pair %v not separated: %v/%v", p, a, b)
		}
	}
	// Minimum-excitation: the 6-cycle needs exactly one Up and one Down.
	excited := 0
	for _, ph := range cols[0] {
		if ph == sg.PUp || ph == sg.PDown {
			excited++
		}
	}
	if excited != 2 {
		t.Fatalf("excited states = %d, want the optimum 2", excited)
	}
}

func TestSolveBDDUnsatGrowth(t *testing.T) {
	// pa has a code group with three mutually conflicting behaviour
	// classes; one binary signal cannot give three states pairwise
	// stable-complementary values.
	spec, err := bench.Load("pa")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conf := sg.Analyze(g)
	if conf.LowerBound < 2 {
		t.Fatalf("pa lower bound = %d, expected ≥ 2", conf.LowerBound)
	}
	if _, err := SolveBDD(context.Background(), g, conf, 1, 0); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("m=1 should be unsatisfiable, got %v", err)
	}
	cols, err := SolveBDD(context.Background(), g, conf, 2, 0)
	if err != nil {
		t.Fatalf("m=2: %v", err)
	}
	if len(cols) != 2 {
		t.Fatalf("want 2 columns")
	}
}

func TestSolveBDDNodeLimitFallsBackViaAttempt(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	// Tiny node limit: SolveBDD must fail with ErrNodeLimit...
	if _, err := SolveBDD(context.Background(), g, conf, 1, 16); err == nil {
		t.Fatalf("tiny node limit should fail")
	}
	// ...and Attempt must transparently fall back to the SAT engine, on
	// the chain solver like every other DPLL search.
	verdicts := map[sat.Status]int{}
	cols, stats, err := Attempt(context.Background(), g, conf, 1,
		SolveOptions{Engine: BDD, bddNodeLimit: 16, Incr: CheckedChainSolver(t, verdicts)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status.String() != "SAT" || stats.Engine != "dpll" || cols == nil {
		t.Fatalf("fallback failed: %+v", stats)
	}
	if verdicts[sat.Sat] != 1 {
		t.Fatalf("fallback search verdicts %v, want one checked SAT step", verdicts)
	}
}

func TestSolveBDDRejectsBadInput(t *testing.T) {
	g := graph(t, twoPulse)
	if _, err := SolveBDD(context.Background(), g, &sg.Conflicts{CSC: []sg.Pair{{A: 0, B: 0}}}, 1, 0); err == nil {
		t.Fatalf("self pair accepted")
	}
	if _, err := SolveBDD(context.Background(), g, sg.Analyze(g), 0, 0); err == nil {
		t.Fatalf("m=0 accepted")
	}
}

// TestBDDDirectSolve runs the whole direct flow with the BDD engine.
func TestBDDDirectSolve(t *testing.T) {
	g := graph(t, twoPulse)
	res, err := Solve(context.Background(), g, SolveOptions{Engine: BDD})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted < 1 {
		t.Fatalf("%+v", res)
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		t.Fatalf("conflicts remain")
	}
	if bad := g.CheckPhaseConsistency(); len(bad) != 0 {
		t.Fatalf("phases inconsistent: %v", bad)
	}
}
