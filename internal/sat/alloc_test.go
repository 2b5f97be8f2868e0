//go:build !race

package sat

import (
	"math/rand"
	"testing"
)

// TestLearnedClausesShareTheArena: learned clauses are appended to the
// solver's one clause arena, so a search that learns thousands of them
// allocates only as that arena and the watch lists grow. One allocation
// per learned clause would put this solve's count above its learned
// count; the bound is a quarter of it. The race detector changes
// allocation counts, so the file builds without it.
func TestLearnedClausesShareTheArena(t *testing.T) {
	f := hardFormula(1023, 176, 750)
	var r Result
	allocs := testing.AllocsPerRun(1, func() { r = Solve(f, Limits{}) })
	if r.Status != Unsat || r.Learned < 10000 {
		t.Fatalf("%v with %d learned clauses, want UNSAT with at least 10000", r.Status, r.Learned)
	}
	if limit := float64(r.Learned) / 4; allocs >= limit {
		t.Fatalf("%.0f allocations per solve for %d learned clauses, want fewer than %.0f", allocs, r.Learned, limit)
	}
	t.Logf("%.0f allocations per solve, %d learned clauses", allocs, r.Learned)
}

// TestIncrementalLoadAllocatesNothing: a step's stable block, group and
// warm seeds are written into the solver's reused arena and the search
// is set up in reused buffers, with the watch lists carved for the
// seeds too, so once a step has run, loading the next step of the same
// shape allocates nothing, with or without seeds.
func TestIncrementalLoadAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	inc := NewIncremental()
	for v := 0; v < n; v++ {
		inc.NewVar()
	}
	perm := newPermBlock(n)
	for i := 0; i < 3*n; i++ {
		perm.add(randomClause(rng, n, 3)...)
	}
	inc.BeginGroup()
	aux := inc.NewGroupVar()
	for i := 0; i < n; i++ {
		c := randomClause(rng, n, 3)
		if i%3 == 0 {
			c[0] = PosLit(aux)
		}
		inc.AddGroup(c...)
	}
	b := perm.block(perm.len())
	if r := inc.SolveStep(b, Limits{}, nil); r.Backtracks == 0 {
		t.Fatalf("first step: %v with no conflict, want a search that learns", r.Status)
	}
	var s *solver
	allocs := testing.AllocsPerRun(20, func() { s = inc.load(b, nil) })
	if s == nil {
		t.Fatal("load: trivially unsatisfiable step")
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations to load a step of the same shape, want 0", allocs)
	}

	// A seeded step: four seeds of two and three literals, a unit seed,
	// and one over a variable the formula lacks, which seeding skips.
	// AllocsPerRun's warm-up load sizes the buffers.
	w := &Warm{Clauses: [][]Lit{randomClause(rng, n, 2), randomClause(rng, n, 3),
		randomClause(rng, n, 2), randomClause(rng, n, 3), {NegLit(1)}, {PosLit(0), PosLit(n + 5)}}}
	allocs = testing.AllocsPerRun(20, func() { s = inc.load(b, w) })
	if s == nil {
		t.Fatal("seeded load: trivially unsatisfiable step")
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations to load a seeded step of the same shape, want 0", allocs)
	}
}
