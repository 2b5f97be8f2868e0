//go:build !race

package sat

import "testing"

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
