package sat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	p, n := PosLit(5), NegLit(5)
	if p.Var() != 5 || n.Var() != 5 {
		t.Fatalf("Var broken")
	}
	if p.Sign() || !n.Sign() {
		t.Fatalf("Sign broken")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatalf("Neg broken")
	}
	if !strings.Contains(n.String(), "x5") {
		t.Fatalf("String broken: %s", n)
	}
}

func TestFormulaTautologyAndDuplicates(t *testing.T) {
	f := NewFormula()
	a := f.NewVar()
	b := f.NewVar()
	f.Add(PosLit(a), NegLit(a)) // tautology: dropped
	if f.NumClauses() != 0 {
		t.Fatalf("tautology not dropped")
	}
	f.Add(PosLit(a), PosLit(a), PosLit(b))
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 2 {
		t.Fatalf("duplicates not removed")
	}
	if f.NumLiterals() != 2 {
		t.Fatalf("literal count %d", f.NumLiterals())
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	f := NewFormula()
	f.Add()
	if r := Solve(f, Limits{}); r.Status != Unsat {
		t.Fatalf("empty clause must be UNSAT, got %v", r.Status)
	}
}

func TestTrivialSat(t *testing.T) {
	f := NewFormula()
	a := f.NewVar()
	b := f.NewVar()
	f.Add(PosLit(a))
	f.Add(NegLit(b))
	r := Solve(f, Limits{})
	if r.Status != Sat || !r.Model[a] || r.Model[b] {
		t.Fatalf("trivial units: %+v", r)
	}
}

func TestSimpleUnsat(t *testing.T) {
	f := NewFormula()
	a := f.NewVar()
	b := f.NewVar()
	f.Add(PosLit(a), PosLit(b))
	f.Add(PosLit(a), NegLit(b))
	f.Add(NegLit(a), PosLit(b))
	f.Add(NegLit(a), NegLit(b))
	if r := Solve(f, Limits{}); r.Status != Unsat {
		t.Fatalf("2-var complete falsification must be UNSAT, got %v", r.Status)
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons into n holes — UNSAT.
func pigeonhole(n int) *Formula {
	f := NewFormula()
	v := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		v[p] = make([]int, n)
		for h := 0; h < n; h++ {
			v[p][h] = f.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = PosLit(v[p][h])
		}
		f.Add(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.Add(NegLit(v[p1][h]), NegLit(v[p2][h]))
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 5; n++ {
		if r := Solve(pigeonhole(n), Limits{}); r.Status != Unsat {
			t.Fatalf("PHP(%d+1,%d) = %v, want UNSAT", n, n, r.Status)
		}
	}
}

func TestBacktrackLimit(t *testing.T) {
	r := Solve(pigeonhole(8), Limits{MaxBacktracks: 10})
	if r.Status != BacktrackLimit {
		t.Fatalf("tiny budget on PHP(9,8): %v, want BACKTRACK-LIMIT", r.Status)
	}
	if BacktrackLimit.String() != "BACKTRACK-LIMIT" || Sat.String() != "SAT" || Unsat.String() != "UNSAT" {
		t.Fatalf("status strings broken")
	}
}

// randomCNF builds a random k-CNF instance.
func randomCNF(rng *rand.Rand, vars, clauses, k int) *Formula {
	f := NewFormula()
	for i := 0; i < vars; i++ {
		f.NewVar()
	}
	for c := 0; c < clauses; c++ {
		lits := make([]Lit, k)
		for j := range lits {
			v := rng.Intn(vars)
			if rng.Intn(2) == 0 {
				lits[j] = PosLit(v)
			} else {
				lits[j] = NegLit(v)
			}
		}
		f.Add(lits...)
	}
	return f
}

// bruteForce decides satisfiability by enumeration (vars ≤ 20).
func bruteForce(f *Formula) bool {
	n := f.NumVars
	model := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for v := 0; v < n; v++ {
			model[v] = m&(1<<v) != 0
		}
		if f.Check(model) {
			return true
		}
	}
	return false
}

// TestSolveMatchesBruteForce cross-checks the CDCL verdict against
// exhaustive enumeration on random small formulas, and validates models.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f := randomCNF(rng, 4+rng.Intn(8), 3+rng.Intn(30), 2+rng.Intn(2))
		want := bruteForce(f)
		r := Solve(f, Limits{})
		if (r.Status == Sat) != want {
			t.Fatalf("case %d: solver %v, brute force sat=%v\n%s", i, r.Status, want, f.DIMACS())
		}
		if r.Status == Sat && !f.Check(r.Model) {
			t.Fatalf("case %d: returned model does not satisfy the formula", i)
		}
	}
}

func TestPreferredPolarity(t *testing.T) {
	f := NewFormula()
	a := f.NewVar()
	b := f.NewVar()
	f.Add(PosLit(a), PosLit(b)) // a ∨ b: both (1,0) and (0,1) work
	f.Prefer(a, false)
	f.Prefer(b, true)
	r := Solve(f, Limits{})
	if r.Status != Sat || r.Model[a] || !r.Model[b] {
		t.Fatalf("polarity hints ignored: %+v", r.Model)
	}
	if f.Preferred(a) != 0 || f.Preferred(b) != 1 {
		t.Fatalf("Preferred getters broken")
	}
}

func TestDIMACS(t *testing.T) {
	f := NewFormula()
	a := f.NewVar()
	b := f.NewVar()
	f.Add(PosLit(a), NegLit(b))
	out := f.DIMACS()
	if !strings.HasPrefix(out, "p cnf 2 1\n") || !strings.Contains(out, "1 -2 0") {
		t.Fatalf("DIMACS output:\n%s", out)
	}
}

// TestQuickModelCheck: Formula.Check agrees with manual clause
// evaluation for arbitrary assignments.
func TestQuickModelCheck(t *testing.T) {
	f := NewFormula()
	for i := 0; i < 6; i++ {
		f.NewVar()
	}
	f.Add(PosLit(0), NegLit(1), PosLit(2))
	f.Add(NegLit(3), PosLit(4))
	f.Add(PosLit(5))
	err := quick.Check(func(bits uint8) bool {
		model := make([]bool, 6)
		for v := 0; v < 6; v++ {
			model[v] = bits&(1<<v) != 0
		}
		want := (model[0] || !model[1] || model[2]) && (!model[3] || model[4]) && model[5]
		return f.Check(model) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolverStatistics(t *testing.T) {
	f := pigeonhole(5)
	r := Solve(f, Limits{})
	if r.Decisions == 0 || r.Backtracks == 0 || r.Props == 0 {
		t.Fatalf("statistics not collected: %+v", r)
	}
}
