package sat

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectory.golden from the current solver")

const trajectoryGolden = "testdata/trajectory.golden"

// TestTrajectoryGolden pins the DPLL search trajectory on a fixed set of
// formulas: for each it records the verdict, the decision, conflict,
// propagation, learned-clause and restart counters, and hashes of the
// model and of the stable learned-clause export. Any change to
// branching, propagation order, conflict analysis or restarts shows up
// here as drift, so a change meant to be a pure speed-up (a new
// branching data structure, a new value table) must leave this file
// untouched.
//
// A change that alters the search on purpose regenerates the file with
//
//	go test ./internal/sat -run TestTrajectoryGolden -update
//
// and says so; ROADMAP.md's "One incremental CDCL core, aimed at the
// cost the profile shows" is the change expected to do that.
func TestTrajectoryGolden(t *testing.T) {
	got := trajectoryLines(t)
	path := filepath.FromSlash(trajectoryGolden)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d formulas)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d formulas, the test builds %d", len(want), len(got))
	}
	drift := 0
	for i := range want {
		if want[i] != got[i] {
			drift++
			t.Errorf("trajectory drift:\n  want %s\n  got  %s", want[i], got[i])
		}
	}
	if drift > 0 {
		t.Fatalf("%d of %d trajectories drifted", drift, len(want))
	}
}

// trajectoryLines solves every pinned formula and renders one line each.
func trajectoryLines(t *testing.T) []string {
	t.Helper()
	lim := Limits{ExportStable: true}
	var lines []string
	add := func(name string, r Result) {
		lines = append(lines, trajectoryLine(name, r))
	}

	// Random 3-SAT at the 4.26 clause/variable threshold, half of each
	// formula marked stable so the export is exercised. The larger ones
	// run past 4400 conflicts, where the activity rescale first fires.
	sat, unsat := 0, 0
	for i := 0; i < 40; i++ {
		nv := 50 + (i%8)*18
		r := Solve(hardFormula(int64(1000+i), nv, int(float64(nv)*4.26+0.5)), lim)
		switch r.Status {
		case Sat:
			sat++
		case Unsat:
			unsat++
		}
		add(fmt.Sprintf("rand3-%02d-v%d", i, nv), r)
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("random formulas gave %d SAT and %d UNSAT, want both verdicts", sat, unsat)
	}

	for n := 5; n <= 7; n++ {
		add(fmt.Sprintf("php-%d", n), Solve(pigeonhole(n), lim))
	}

	pf := hardFormula(77, 120, 511)
	for v := 0; v < pf.NumVars; v++ {
		switch v % 3 {
		case 0:
			pf.Prefer(v, true)
		case 1:
			pf.Prefer(v, false)
		}
	}
	add("prefer", Solve(pf, lim))

	// A warm solve: a formula that shares its stable prefix with a solved
	// one, seeded with that solve's stable exports.
	base := hardFormula(91, 140, 596)
	br := Solve(base, lim)
	if len(br.StableLearned) == 0 {
		t.Fatalf("warm base exported no stable clauses")
	}
	add("warm-base", br)
	next := NewFormula()
	for v := 0; v < base.NumVars; v++ {
		next.NewVar()
	}
	for _, c := range base.Clauses[:base.StablePrefix()] {
		next.Add(c...)
	}
	next.MarkStablePrefix()
	rng := rand.New(rand.NewSource(92))
	for i := 0; i < len(base.Clauses)-base.StablePrefix(); i++ {
		next.Add(randomClause(rng, base.NumVars, 3)...)
	}
	add("warm-seeded", SolveWarm(next, lim, &Warm{Clauses: br.StableLearned}))

	for step, r := range incrementalChain(5) {
		add(fmt.Sprintf("incremental-step%d", step), r)
	}
	return lines
}

func trajectoryLine(name string, r Result) string {
	model := fnv.New64a()
	for _, b := range r.Model {
		if b {
			model.Write([]byte{1})
		} else {
			model.Write([]byte{0})
		}
	}
	stable := fnv.New64a()
	for _, c := range r.StableLearned {
		fmt.Fprintf(stable, "%v;", c)
	}
	return fmt.Sprintf("%s %v dec=%d bt=%d props=%d learned=%d restarts=%d model=%d/%016x stable=%d/%016x",
		name, r.Status, r.Decisions, r.Backtracks, r.Props, r.Learned, r.Restarts,
		len(r.Model), model.Sum64(), len(r.StableLearned), stable.Sum64())
}

// randomClause draws a clause of k distinct variables over nv.
func randomClause(rng *rand.Rand, nv, k int) []Lit {
	lits := make([]Lit, 0, k)
	for len(lits) < k {
		v := rng.Intn(nv)
		dup := false
		for _, l := range lits {
			dup = dup || l.Var() == v
		}
		if !dup {
			lits = append(lits, Lit(2*v+rng.Intn(2)))
		}
	}
	return lits
}

// incrementalChain drives one Incremental solver through a widening
// chain: a two-column permanent prefix, written as each step's stable
// block, then steps over both columns, column 0 alone (column 1's
// variables inert) and both again, each with a fresh assumption group of
// auxiliary variables and seeded with the previous step's stable exports
// that fit the active prefix.
func incrementalChain(seed int64) []Result {
	rng := rand.New(rand.NewSource(seed))
	const c0, c1 = 40, 30
	inc := NewIncremental()
	for v := 0; v < c0+c1; v++ {
		inc.NewVar()
		if v%4 == 0 {
			inc.Prefer(v, v%8 == 0)
		}
	}
	perm := newPermBlock(c0 + c1)
	for i := 0; i < 3*c0; i++ {
		perm.add(randomClause(rng, c0, 3)...)
	}
	p0 := perm.len()
	for i := 0; i < 3*c1; i++ {
		perm.add(randomClause(rng, c0+c1, 3)...)
	}
	p1 := perm.len()

	var out []Result
	var prev [][]Lit
	for _, cols := range []int{2, 1, 2} {
		nPrefix, active := c0+c1, p1
		if cols == 1 {
			nPrefix, active = c0, p0
		}
		for v := c0; v < c0+c1; v++ {
			inc.SetInert(v, cols == 1)
		}
		inc.BeginGroup()
		aux := []int{inc.NewGroupVar(), inc.NewGroupVar(), inc.NewGroupVar()}
		for i := 0; i < 2*nPrefix; i++ {
			c := randomClause(rng, nPrefix, 3)
			if i%5 == 0 {
				c[2] = Lit(2*aux[i%3] + rng.Intn(2))
			}
			inc.AddGroup(c...)
		}
		var seeds [][]Lit
		for _, c := range prev {
			fits := true
			for _, l := range c {
				fits = fits && l.Var() < nPrefix
			}
			if fits {
				seeds = append(seeds, c)
			}
		}
		r := inc.SolveStep(perm.block(active), Limits{ExportStable: true}, &Warm{Clauses: seeds})
		prev = r.StableLearned
		out = append(out, r)
	}
	return out
}
