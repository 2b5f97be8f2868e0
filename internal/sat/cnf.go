// Package sat provides a CNF model and a complete conflict-driven DPLL
// branch-and-bound procedure with a backtrack budget (the role the SIS
// SAT program plays in the paper), run fresh, warm-started from learned
// clauses, or as assumption-guarded steps of one incremental solver.
package sat

import (
	"fmt"
	"strings"
)

// Lit is a literal: variable index v (0-based) encoded as 2v for the
// positive literal and 2v+1 for the negation.
type Lit int32

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(2 * v) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(2*v + 1) }

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l) >> 1 }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("¬x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Formula is a CNF formula under construction.
type Formula struct {
	NumVars  int
	Clauses  [][]Lit
	prefer   []int8 // -1 none, 0 prefer false, 1 prefer true
	hasEmpty bool
	// stablePrefix marks the first clauses as structural: invariant
	// across the related formulas of a solve chain (see
	// MarkStablePrefix).
	stablePrefix int
}

// MarkStablePrefix declares every clause added so far "stable":
// structural constraints that recur verbatim (modulo signal-column
// instantiation) in every related formula of a solve chain. The DPLL
// engine tracks which learned clauses derive exclusively from stable
// clauses; only those are exported for warm-starting later searches
// (Result.StableLearned), because a clause derived through a
// non-stable constraint is not implied by the next formula in the
// chain. Encoders call this once, after the invariant constraints and
// before the per-problem ones.
func (f *Formula) MarkStablePrefix() { f.stablePrefix = len(f.Clauses) }

// StablePrefix returns the number of leading stable clauses.
func (f *Formula) StablePrefix() int { return f.stablePrefix }

// Prefer records a branching-polarity hint for variable v: the solver
// tries that value first. Encoders use it to steer the search toward
// structurally cheap models (e.g. stable phases over excited ones).
func (f *Formula) Prefer(v int, value bool) {
	for len(f.prefer) < f.NumVars {
		f.prefer = append(f.prefer, -1)
	}
	if value {
		f.prefer[v] = 1
	} else {
		f.prefer[v] = 0
	}
}

// Preferred returns the polarity hint for v (-1 when none).
func (f *Formula) Preferred(v int) int8 {
	if v < len(f.prefer) {
		return f.prefer[v]
	}
	return -1
}

// NewFormula returns an empty formula.
func NewFormula() *Formula { return &Formula{} }

// NewVar allocates a fresh variable and returns its index.
func (f *Formula) NewVar() int {
	v := f.NumVars
	f.NumVars++
	return v
}

// Add appends a clause. Duplicate literals are removed; a clause holding
// both a literal and its complement is a tautology and is dropped. An
// empty clause makes the formula trivially unsatisfiable.
func (f *Formula) Add(lits ...Lit) {
	// Clauses are short (edge-compatibility clauses top out at four
	// literals), so dedup by scanning the kept literals instead of
	// allocating a set per call.
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if int(l.Var()) >= f.NumVars {
			panic(fmt.Sprintf("sat: literal %v beyond %d vars", l, f.NumVars))
		}
		dup := false
		for _, o := range out {
			if o == l.Neg() {
				return // tautology
			}
			if o == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		f.hasEmpty = true
	}
	f.Clauses = append(f.Clauses, out)
}

// NumClauses returns the clause count.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NumLiterals returns the total literal count across clauses.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// Check evaluates the formula under a full assignment.
func (f *Formula) Check(model []bool) bool {
	if f.hasEmpty {
		return false
	}
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] != l.Sign() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// DIMACS renders the formula in DIMACS cnf format.
func (f *Formula) DIMACS() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			v := l.Var() + 1
			if l.Sign() {
				v = -v
			}
			fmt.Fprintf(&b, "%d ", v)
		}
		b.WriteString("0\n")
	}
	return b.String()
}
