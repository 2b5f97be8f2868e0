package csc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// edgeKindsGraph builds a five-state graph by hand with every kind of
// edge the generated edge blocks distinguish: input edges (10 blocked
// phase pairs each), output edges (8 each) and self-loops, an ε one and
// an output one, whose clauses are all tautologies.
func edgeKindsGraph() *sg.Graph {
	g := &sg.Graph{
		Name:   "edge-kinds",
		Base:   []sg.SignalInfo{{Name: "a", Input: true}, {Name: "b"}},
		Active: 3,
		States: []sg.State{{Code: 0}, {Code: 1}, {Code: 3}, {Code: 2}, {Code: 0}},
		Edges: []sg.Edge{
			{From: 0, To: 1, Sig: 0, Dir: stg.Rising},
			{From: 1, To: 2, Sig: 1, Dir: stg.Rising},
			{From: 2, To: 2, Sig: -1},
			{From: 2, To: 3, Sig: 0, Dir: stg.Falling},
			{From: 3, To: 3, Sig: 1, Dir: stg.Rising},
			{From: 3, To: 4, Sig: 1, Dir: stg.Falling},
			{From: 4, To: 0, Sig: -1},
		},
	}
	g.Out = make([][]int, len(g.States))
	g.In = make([][]int, len(g.States))
	for i, e := range g.Edges {
		g.Out[e.From] = append(g.Out[e.From], i)
		g.In[e.To] = append(g.In[e.To], i)
	}
	return g
}

// TestChainSolverMatchesEncode checks the generated edge blocks against
// Encode on a graph with input, output and self-loop edges: every step of
// one ChainSolver, growing, shrinking and regrowing its columns, reports
// the formula size, verdict, search counters and model of Encode's
// formula solved from scratch by sat.SolveWarm. The solver is then
// handed other graphs: one of another size, a structurally equal copy
// of the first and one of the first's size with an edge relabelled. It
// must reset for each.
func TestChainSolverMatchesEncode(t *testing.T) {
	g := edgeKindsGraph()
	separable := &sg.Conflicts{CSC: []sg.Pair{{A: 0, B: 2}}, USC: []sg.Pair{{A: 2, B: 4}}}
	inseparable := &sg.Conflicts{CSC: []sg.Pair{{A: 0, B: 2}, {A: 1, B: 3}}}
	type step struct {
		g    *sg.Graph
		conf *sg.Conflicts
		m    int
	}
	var steps []step
	for _, m := range []int{2, 1, 3, 1, 2} {
		steps = append(steps, step{g, separable, m}, step{g, inseparable, m})
	}
	tp := graph(t, twoPulse)
	gCopy := *g
	relabelled := edgeKindsGraph()
	relabelled.Name = "relabelled"
	relabelled.Edges[5].Sig = -1 // 3→4 becomes an ε edge, blocking 10 pairs
	steps = append(steps, step{tp, sg.Analyze(tp), 1}, step{tp, sg.Analyze(tp), 2},
		step{&gCopy, separable, 2}, step{relabelled, separable, 2}, step{g, separable, 1})

	c := NewChainSolver()
	verdicts := map[sat.Status]int{}
	for i, st := range steps {
		verdicts[chainStepMatchesEncode(t, c, i, st.g, st.conf, st.m)]++
	}
	if verdicts[sat.Sat] == 0 || verdicts[sat.Unsat] == 0 {
		t.Fatalf("verdicts %v, want both SAT and UNSAT steps", verdicts)
	}
	// Three input edges (two of a, one ε) and two output edges block
	// 3·10 + 2·8 phase pairs per column; the two self-loops add nothing.
	if c.blockCl != 46 {
		t.Fatalf("%d edge clauses per column, want 46", c.blockCl)
	}
}

// chainStepMatchesEncode solves one step on c and compares it with
// Encode's formula solved from scratch, returning the verdict.
func chainStepMatchesEncode(t *testing.T, c *ChainSolver, step int, g *sg.Graph, conf *sg.Conflicts, m int) sat.Status {
	t.Helper()
	var status sat.Status
	t.Run(fmt.Sprintf("step%d-%s-m%d-pairs%d", step, g.Name, m, conf.N()), func(t *testing.T) {
		mc := metrics.New()
		opt := SolveOptions{}.withDefaults()
		cols, got, _, err := c.solve(metrics.With(context.Background(), mc), g, conf, m, opt, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := Encode(g, conf, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := sat.SolveWarm(enc.F, sat.Limits{MaxBacktracks: opt.MaxBacktracks}, nil)
		want := FormulaStats{Signals: m, Vars: enc.F.NumVars, Clauses: enc.F.NumClauses(),
			Literals: enc.F.NumLiterals(), Status: r.Status, Engine: "dpll"}
		got.SolveTime, got.SearchTime = 0, 0
		status = got.Status
		if got != want {
			t.Fatalf("chain solver formula %+v, Encode %+v", got, want)
		}
		counters := mc.Map()
		for name, n := range map[string]int64{
			"sat_decisions": r.Decisions, "sat_conflicts": r.Backtracks, "sat_propagations": r.Props,
			"sat_learned": r.Learned, "sat_restarts": r.Restarts,
		} {
			if counters[name] != n {
				t.Errorf("%s: chain solver %d, Encode %d", name, counters[name], n)
			}
		}
		if r.Status != sat.Sat {
			if cols != nil {
				t.Fatalf("%v step decoded %d columns", r.Status, len(cols))
			}
			return
		}
		wantCols := enc.DecodePhases(r.Model)
		Tighten(g, conf, wantCols)
		if fmt.Sprint(cols) != fmt.Sprint(wantCols) {
			t.Fatalf("chain solver columns %v, Encode %v", cols, wantCols)
		}
	})
	return status
}
