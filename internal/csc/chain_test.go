package csc

import (
	"context"
	"fmt"
	"testing"
	"time"

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
	g.IndexEdges()
	return g
}

// TestChainSolverMatchesEncode checks the generated edge blocks and the
// shared pair emission against Encode on a graph with input, output and
// self-loop edges: every step of one ChainSolver, growing, shrinking
// and regrowing its columns, reports the formula size, verdict, search
// counters, stable export and model of Encode's formula solved from
// scratch by sat.SolveWarm, and the diagram oracle, small enough here
// for every step, gives its verdict. The solver is then handed other
// graphs: one of another size, a structurally equal copy of the first
// and one of the first's size with an edge relabelled. It must reset
// for each. The same sequence then runs again in the paper-style
// expanded encoding.
func TestChainSolverMatchesEncode(t *testing.T) {
	g := edgeKindsGraph()
	separable := &sg.Conflicts{CSC: []sg.Pair{{A: 0, B: 2}}, USC: []sg.Pair{{A: 2, B: 4}}}
	inseparable := &sg.Conflicts{CSC: []sg.Pair{{A: 0, B: 2}, {A: 1, B: 3}}}
	type step struct {
		g         *sg.Graph
		conf      *sg.Conflicts
		m         int
		expandXor bool
	}
	tp := graph(t, twoPulse)
	gCopy := *g
	relabelled := edgeKindsGraph()
	relabelled.Name = "relabelled"
	relabelled.Edges[5].Sig = -1 // 3→4 becomes an ε edge, blocking 10 pairs
	var steps []step
	for _, expandXor := range []bool{false, true} {
		for _, m := range []int{2, 1, 3, 1, 2} {
			steps = append(steps, step{g, separable, m, expandXor}, step{g, inseparable, m, expandXor})
		}
		steps = append(steps, step{tp, sg.Analyze(tp), 1, expandXor}, step{tp, sg.Analyze(tp), 2, expandXor},
			step{&gCopy, separable, 2, expandXor}, step{relabelled, separable, 2, expandXor}, step{g, separable, 1, expandXor})
	}

	c := NewChainSolver()
	verdicts := map[sat.Status]int{}
	var oracle OracleTally
	for i, st := range steps {
		name := fmt.Sprintf("step%d-%s-m%d-pairs%d", i, st.g.Name, st.m, st.conf.N())
		if st.expandXor {
			name += "-expandxor"
		}
		t.Run(name, func(t *testing.T) {
			c.check = stepChecker(t, verdicts, &oracle)
			opt := SolveOptions{ExpandXor: st.expandXor}.withDefaults()
			if _, _, _, err := c.solve(context.Background(), st.g, st.conf, st.m, opt, time.Now()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if verdicts[sat.Sat] == 0 || verdicts[sat.Unsat] == 0 || verdicts[sat.Sat]+verdicts[sat.Unsat] != len(steps) {
		t.Fatalf("verdicts %v over %d steps, want SAT and UNSAT steps only", verdicts, len(steps))
	}
	if oracle.Decided != len(steps) || oracle.Unsat != verdicts[sat.Unsat] {
		t.Fatalf("%v over %d steps, want every step decided", oracle, len(steps))
	}
	// Three input edges (two of a, one ε) and two output edges block
	// 3·10 + 2·8 phase pairs per column; the two self-loops add nothing.
	if c.blockCl != 46 {
		t.Fatalf("%d edge clauses per column, want 46", c.blockCl)
	}
}
