package sat

// Warm carries learned clauses exported from an earlier, related solve
// (Result.StableLearned) to seed a new search. Every clause must be an
// actual consequence of the new formula — the csc warm chain guarantees
// this by only carrying clauses derived from the stable structural
// prefix shared along a solve chain (Formula.MarkStablePrefix) — or the
// seeded search may wrongly exclude models.
type Warm struct {
	Clauses [][]Lit
}

// SolveWarm is Solve with w's clauses pre-loaded as stable learned
// clauses; Solve(f, lim) and SolveWarm(f, lim, nil) are the same search.
// The seeds prune refuted subspaces immediately instead of re-deriving
// them. Seeding is deterministic: clauses are installed in the given
// order before the search begins, so two runs with equal (formula,
// limits, seeds) produce identical results.
func SolveWarm(f *Formula, lim Limits, w *Warm) Result {
	if f.hasEmpty {
		return Result{Status: Unsat}
	}
	s := newSolver(f)
	if w != nil {
		for _, lits := range w.Clauses {
			s.seed(lits)
		}
	}
	return s.run(lim)
}

// seed installs one warm clause as a stable learned clause. Clauses
// with out-of-range literals are ignored (a seed meant for a larger
// formula); empty clauses cannot occur in exports.
func (s *solver) seed(lits []Lit) {
	if len(lits) == 0 {
		return
	}
	for _, l := range lits {
		if l.Var() >= s.f.NumVars {
			return
		}
	}
	cr := int32(len(s.arena))
	s.arena = appendClause(s.arena, lits, flagLearned|flagStable)
	s.watch(cr)
}
