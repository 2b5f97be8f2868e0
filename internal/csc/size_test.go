package csc

import (
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
)

// TestPredictExact: the executable complexity model matches the real
// expanded encoding bit for bit on the benchmark suite.
func TestPredictExact(t *testing.T) {
	for _, name := range []string{"vbe-ex1", "fifo", "sbuf-read-ctl", "pa", "nouse", "mmu1"} {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		conf := sg.Analyze(g)
		for m := 1; m <= 3; m++ {
			want := Predict(g, conf, m)
			enc, err := Encode(g, conf, m, true)
			if err != nil {
				t.Fatal(err)
			}
			if enc.F.NumVars != want.Vars {
				t.Errorf("%s m=%d: vars %d, predicted %d", name, m, enc.F.NumVars, want.Vars)
			}
			got := enc.F.NumClauses()
			lo := want.EdgeClauses + want.CSCClauses // USC term may collapse
			if got < lo || got > want.Clauses {
				t.Errorf("%s m=%d: clauses %d outside [%d,%d] (edges %d, csc %d, usc ≤ %d)",
					name, m, got, lo, want.Clauses,
					want.EdgeClauses, want.CSCClauses, want.USCClauses)
			}
		}
	}
}

// TestPredictGrowth pins the paper's exponential c^m terms.
func TestPredictGrowth(t *testing.T) {
	spec, _ := bench.Load("pa")
	g, _ := sg.FromSTG(spec, sg.Options{})
	conf := sg.Analyze(g)
	s1 := Predict(g, conf, 1)
	s2 := Predict(g, conf, 2)
	if s2.CSCClauses != 4*s1.CSCClauses {
		t.Errorf("CSC term not 4^m: %d vs %d", s1.CSCClauses, s2.CSCClauses)
	}
	if s2.USCClauses != 8*s1.USCClauses { // 6m·4^m: (6·2·16)/(6·1·4) = 8
		t.Errorf("USC term not 2m·4^m: %d vs %d", s1.USCClauses, s2.USCClauses)
	}
	if s2.EdgeClauses != 2*s1.EdgeClauses {
		t.Errorf("edge term not linear: %d vs %d", s1.EdgeClauses, s2.EdgeClauses)
	}
}

// Size predicts the dimensions of a SAT-CSC instance without building
// it — the executable form of the paper's §2.1 complexity model
//
//	clauses = m·(c1·E + N_usc·c3^m + N_csc·c4^m),  variables = 2·N·m
//
// with this implementation's constants made explicit. Variables, edge
// and CSC terms are exact for the paper-style expanded encoding; the
// USC term is an upper bound (tests pin the bracket).
type Size struct {
	Vars    int
	Clauses int

	// Components, for reporting.
	EdgeClauses int // m · Σ_edges (8 or 10) — exact
	CSCClauses  int // N_csc · 4^m (c4 = 4) — exact
	USCClauses  int // N_usc · 6m · 4^m (c3 = 4 with a 6m factor) — upper
	// bound: clauses whose base XOR choice subsumes or contradicts a
	// blocked-pair literal collapse or drop as tautologies.
}

// Predict computes the size of the expanded (paper-style) encoding of
// conf on g with m state signals: exact for the variable, edge and CSC
// terms, an upper bound for the USC term. The Tseitin default is
// strictly smaller (linear in m); the expanded form is the one whose
// growth the paper's formula describes.
func Predict(g *sg.Graph, conf *sg.Conflicts, m int) Size {
	var s Size
	s.Vars = 2 * len(g.States) * m

	perEdge := 0
	for _, e := range g.Edges {
		if g.InputEdge(e) {
			perEdge += 10 // 8 blocked pairs + the 2 completion pairs
		} else {
			perEdge += 8
		}
	}
	s.EdgeClauses = m * perEdge

	pow4 := 1
	for i := 0; i < m; i++ {
		pow4 *= 4
	}
	s.CSCClauses = len(conf.CSC) * pow4
	s.USCClauses = len(conf.USC) * 6 * m * pow4
	s.Clauses = s.EdgeClauses + s.CSCClauses + s.USCClauses
	return s
}
