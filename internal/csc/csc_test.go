package csc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

// twoPulse: the canonical CSC-violating STG (codes 10 and 00 recur with
// different enabled outputs).
const twoPulse = `
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

func graph(t *testing.T, src string) *sg.Graph {
	t.Helper()
	g, err := stg.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	sgr, err := sg.FromSTG(g, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sgr
}

func TestPhaseBitsRoundTrip(t *testing.T) {
	for _, p := range []sg.Phase{sg.P0, sg.P1, sg.PUp, sg.PDown} {
		a, b := phaseBits(p)
		if got := bitsPhase(a, b); got != p {
			t.Fatalf("round trip %v → (%v,%v) → %v", p, a, b, got)
		}
	}
	// The b bit is the level (the paper's footnote-2 encoding).
	for _, p := range []sg.Phase{sg.P0, sg.P1, sg.PUp, sg.PDown} {
		_, b := phaseBits(p)
		lvl := b
		if (p.Level() == 1) != lvl {
			t.Fatalf("b bit of %v is not its level", p)
		}
	}
}

func TestEncodeRejectsSelfConflict(t *testing.T) {
	g := graph(t, twoPulse)
	conf := &sg.Conflicts{CSC: []sg.Pair{{A: 1, B: 1}}}
	if _, err := Encode(g, conf, 1, false); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("self pair must be rejected, got %v", err)
	}
	if _, err := Encode(g, conf, 0, false); err == nil {
		t.Fatalf("m=0 must be rejected")
	}
}

// solveAndDecode encodes, solves and returns tightened phase columns.
func solveAndDecode(t *testing.T, g *sg.Graph, m int, expandXor bool) [][]sg.Phase {
	t.Helper()
	conf := sg.Analyze(g)
	enc, err := Encode(g, conf, m, expandXor)
	if err != nil {
		t.Fatal(err)
	}
	r := sat.Solve(enc.F, sat.Limits{})
	if r.Status != sat.Sat {
		t.Fatalf("encoding unexpectedly %v", r.Status)
	}
	return enc.DecodePhases(r.Model)
}

func TestEncodeSolveDecode(t *testing.T) {
	g := graph(t, twoPulse)
	cols := solveAndDecode(t, g, 1, false)
	if len(cols) != 1 || len(cols[0]) != g.NumStates() {
		t.Fatalf("decoded shape wrong")
	}
	// Model must satisfy edge compatibility...
	for _, e := range g.Edges {
		if !sg.EdgeCompatible(cols[0][e.From], cols[0][e.To]) {
			t.Fatalf("edge %d→%d: %v→%v", e.From, e.To, cols[0][e.From], cols[0][e.To])
		}
	}
	// ...and stable separation of both conflict pairs.
	conf := sg.Analyze(g)
	for _, p := range conf.CSC {
		a, b := cols[0][p.A], cols[0][p.B]
		sep := (a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0)
		if !sep {
			t.Fatalf("pair %v not stably separated: %v vs %v", p, a, b)
		}
	}
}

// TestExpandXorEquivalent: the paper-style expansion and the Tseitin
// encoding must agree on satisfiability, and the expanded form must have
// no auxiliary variables.
func TestExpandXorEquivalent(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	for m := 1; m <= 2; m++ {
		tse, err := Encode(g, conf, m, false)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Encode(g, conf, m, true)
		if err != nil {
			t.Fatal(err)
		}
		if exp.F.NumVars != 2*m*g.NumStates() {
			t.Fatalf("expanded encoding has aux vars: %d", exp.F.NumVars)
		}
		rt := sat.Solve(tse.F, sat.Limits{})
		re := sat.Solve(exp.F, sat.Limits{})
		if rt.Status != re.Status {
			t.Fatalf("m=%d: tseitin=%v expanded=%v", m, rt.Status, re.Status)
		}
		// A model of the expanded form decodes to valid phases too.
		if re.Status == sat.Sat {
			cols := exp.DecodePhases(re.Model)
			for _, e := range g.Edges {
				if !sg.EdgeCompatible(cols[0][e.From], cols[0][e.To]) {
					t.Fatalf("expanded model violates edge relation")
				}
			}
		}
	}
}

// TestExpandXorClauseGrowth: the expanded encoding grows exponentially
// with m (the paper's c^m term) while Tseitin grows linearly.
func TestExpandXorClauseGrowth(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	var expPair, tsePair [4]int
	edgeClauses := func(m int) int {
		n := 0
		for _, e := range g.Edges {
			if g.InputEdge(e) {
				n += 10 // the two completion pairs are also blocked
			} else {
				n += 8
			}
		}
		return n * m
	}
	for m := 1; m <= 3; m++ {
		e1, _ := Encode(g, conf, m, true)
		e2, _ := Encode(g, conf, m, false)
		expPair[m] = e1.F.NumClauses() - edgeClauses(m)
		tsePair[m] = e2.F.NumClauses() - edgeClauses(m)
	}
	// Expanded pair clauses quadruple with each extra signal (4^m, the
	// paper's c^m term); Tseitin pair clauses grow linearly in m.
	if expPair[2] != 4*expPair[1] || expPair[3] != 4*expPair[2] {
		t.Fatalf("expanded pair-clause growth not 4^m: %v", expPair)
	}
	if tsePair[3]-tsePair[2] != tsePair[2]-tsePair[1] {
		t.Fatalf("tseitin pair-clause growth not linear: %v", tsePair)
	}
}

func TestSolveDirectResolvesConflicts(t *testing.T) {
	g := graph(t, twoPulse)
	res, err := Solve(context.Background(), g, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted < 1 {
		t.Fatalf("direct solve: %+v", res)
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		t.Fatalf("%d conflicts remain", conf.N())
	}
	if bad := g.CheckPhaseConsistency(); len(bad) != 0 {
		t.Fatalf("inserted phases inconsistent: %v", bad)
	}
	if len(res.Formulas) == 0 || res.Formulas[len(res.Formulas)-1].Status != sat.Sat {
		t.Fatalf("formula stats missing: %+v", res.Formulas)
	}
}

func TestSolveDirectNoConflicts(t *testing.T) {
	g := graph(t, `
.model hs
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
`)
	res, err := Solve(context.Background(), g, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || len(res.Formulas) != 0 {
		t.Fatalf("clean graph gained signals: %+v", res)
	}
}

func TestSolveDirectBacktrackLimit(t *testing.T) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), g, SolveOptions{MaxBacktracks: 1})
	if !errors.Is(err, synerr.ErrBacktrackLimit) {
		t.Fatalf("1-backtrack budget on mmu1 should abort, got %v", err)
	}
	if len(res.Formulas) == 0 || res.Formulas[len(res.Formulas)-1].Status != sat.BacktrackLimit {
		t.Fatalf("abort not recorded in formula stats")
	}
}

// TestEngineNumbersAreCacheKeys pins the engine values: int(Engine) is
// part of the module-cache key that disk and peer records are matched
// on, so renumbering an engine would let a record written under another
// engine by an older build answer its queries.
func TestEngineNumbersAreCacheKeys(t *testing.T) {
	if int(DPLL) != 0 || int(BDD) != 2 {
		t.Fatalf("DPLL = %d, BDD = %d; want 0 and 2", int(DPLL), int(BDD))
	}
}

func TestTightenPreservesConstraintsAndShrinksRegions(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	enc, err := Encode(g, conf, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	r := sat.Solve(enc.F, sat.Limits{})
	if r.Status != sat.Sat {
		t.Fatal("unsat")
	}
	cols := enc.DecodePhases(r.Model)
	before := countExcited(cols)
	Tighten(g, conf, cols)
	after := countExcited(cols)
	if after > before {
		t.Fatalf("tighten grew excitation: %d → %d", before, after)
	}
	for _, e := range g.Edges {
		if !sg.EdgeCompatible(cols[0][e.From], cols[0][e.To]) {
			t.Fatalf("tighten broke edge relation")
		}
	}
	for _, p := range conf.CSC {
		a, b := cols[0][p.A], cols[0][p.B]
		if !((a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0)) {
			t.Fatalf("tighten broke separation of %v", p)
		}
	}
}

func countExcited(cols [][]sg.Phase) int {
	n := 0
	for _, col := range cols {
		for _, p := range col {
			if p == sg.PUp || p == sg.PDown {
				n++
			}
		}
	}
	return n
}

func TestRedundantAndPrune(t *testing.T) {
	g := graph(t, twoPulse)
	if _, err := Solve(context.Background(), g, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	needed := len(g.StateSigs)
	// Duplicate the first column: the copy must be redundant.
	dup := sg.StateSignal{Name: "dup", Phases: append([]sg.Phase(nil), g.StateSigs[0].Phases...)}
	g.StateSigs = append(g.StateSigs, dup)
	if !Redundant(g, len(g.StateSigs)-1) {
		t.Fatalf("duplicated column not redundant")
	}
	removed := Prune(g)
	if len(removed) != 1 || removed[0] != "dup" {
		t.Fatalf("prune removed %v", removed)
	}
	if len(g.StateSigs) != needed {
		t.Fatalf("prune removed needed signals")
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		t.Fatalf("prune broke CSC")
	}
	// The remaining signal must not be redundant.
	for k := range g.StateSigs {
		if Redundant(g, k) {
			t.Fatalf("needed signal %d reported redundant", k)
		}
	}
	if Redundant(g, -1) || Redundant(g, 99) {
		t.Fatalf("out-of-range index must not be redundant")
	}
}
