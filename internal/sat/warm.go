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
	s := newSolver(f, w)
	if w != nil {
		for _, lits := range w.Clauses {
			s.seed(lits)
		}
	}
	return s.run(lim)
}

// seed installs one warm clause as a stable learned clause. Clauses
// with out-of-range literals are ignored (a seed meant for a larger
// formula); empty clauses cannot occur in exports. The arena and the
// watch lists have room for it: their owner sized them for the seeds.
func (s *solver) seed(lits []Lit) {
	if len(lits) == 0 || !seedable(lits, s.f.NumVars) {
		return
	}
	cr := int32(len(s.arena))
	s.arena = appendClause(s.arena, lits, flagLearned|flagStable)
	s.watch(cr)
}

// seedable reports whether every literal of lits is over the first n
// variables.
func seedable(lits []Lit, n int) bool {
	for _, l := range lits {
		if l.Var() >= n {
			return false
		}
	}
	return true
}

// words returns the arena words the seeds of w take in a formula over
// n variables: a header word and the literals of each seed installed.
func (w *Warm) words(n int) int {
	if w == nil {
		return 0
	}
	total := 0
	for _, lits := range w.Clauses {
		if len(lits) > 0 && seedable(lits, n) {
			total += 1 + len(lits)
		}
	}
	return total
}
