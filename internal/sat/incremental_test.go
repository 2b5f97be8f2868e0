package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// permBlock holds a test's permanent clauses over a fixed variable count,
// normalized as Formula.Add normalizes them (duplicates removed,
// tautologies dropped, empty clauses kept), and writes a prefix of them
// as an Incremental step's stable block.
type permBlock struct{ f *Formula }

func newPermBlock(numVars int) permBlock {
	f := NewFormula()
	for v := 0; v < numVars; v++ {
		f.NewVar()
	}
	return permBlock{f}
}

func (p permBlock) add(lits ...Lit) { p.f.Add(lits...) }

// len returns the number of clauses kept so far.
func (p permBlock) len() int { return len(p.f.Clauses) }

// block returns the first n kept clauses as a stable block.
func (p permBlock) block(n int) Block {
	clauses := p.f.Clauses[:n]
	b := Block{Clauses: n}
	for _, c := range clauses {
		b.Literals += len(c)
	}
	b.Append = func(arena []Lit) []Lit {
		for _, c := range clauses {
			arena = AppendStable(arena, c...)
		}
		return arena
	}
	return b
}

// lockstepCompare asserts that an incremental step and its re-encoded
// fresh twin produced identical results: verdict, every search counter,
// the stable exports (which mention only shared prefix variables, so
// their numbering coincides), and the model under the aux-variable
// translation.
func lockstepCompare(t *testing.T, fr, ir Result, nPrefix int, incAux []int) {
	t.Helper()
	if ir.Status != fr.Status {
		t.Fatalf("status: incremental %v, fresh %v", ir.Status, fr.Status)
	}
	if ir.Decisions != fr.Decisions || ir.Backtracks != fr.Backtracks ||
		ir.Props != fr.Props || ir.Learned != fr.Learned || ir.Restarts != fr.Restarts {
		t.Fatalf("counters diverge:\nincremental dec=%d bt=%d prop=%d learn=%d restart=%d\nfresh       dec=%d bt=%d prop=%d learn=%d restart=%d",
			ir.Decisions, ir.Backtracks, ir.Props, ir.Learned, ir.Restarts,
			fr.Decisions, fr.Backtracks, fr.Props, fr.Learned, fr.Restarts)
	}
	if len(ir.StableLearned) != len(fr.StableLearned) {
		t.Fatalf("exports: incremental %d clauses, fresh %d", len(ir.StableLearned), len(fr.StableLearned))
	}
	for i := range fr.StableLearned {
		fc, ic := fr.StableLearned[i], ir.StableLearned[i]
		if len(fc) != len(ic) {
			t.Fatalf("export %d: lengths %d vs %d", i, len(ic), len(fc))
		}
		for j := range fc {
			if fc[j].Var() >= nPrefix {
				t.Fatalf("fresh export %d mentions non-prefix var %d", i, fc[j].Var())
			}
			if fc[j] != ic[j] {
				t.Fatalf("export %d literal %d: incremental %v, fresh %v", i, j, ic[j], fc[j])
			}
		}
	}
	if fr.Status != Sat {
		return
	}
	for v := 0; v < nPrefix; v++ {
		if fr.Model[v] != ir.Model[v] {
			t.Fatalf("model prefix var %d: incremental %v, fresh %v", v, ir.Model[v], fr.Model[v])
		}
	}
	for j, iv := range incAux {
		if fr.Model[nPrefix+j] != ir.Model[iv] {
			t.Fatalf("model aux %d: incremental %v, fresh %v", j, ir.Model[iv], fr.Model[nPrefix+j])
		}
	}
}

// TestIncrementalLockstep drives an Incremental solver through multi-step
// chains — growing permanent prefix written as each step's stable block, per-step assumption groups with
// auxiliary variables, warm seeds carried between steps, and an active
// prefix that shrinks and regrows — and checks every step against a
// from-scratch re-encode of the same formula. The two paths must agree
// bit for bit: same verdict, same decision/backtrack/propagation/learned
// /restart counters, same stable exports, same model.
//
// The first trials are small chains. The last ones are hard chains:
// 3-SAT near the satisfiability threshold in every block, so each step
// runs hundreds of conflicts, grows the clause arena with hundreds of
// learned clauses during the search and installs the previous step's
// exports as seeds.
func TestIncrementalLockstep(t *testing.T) {
	const small, hard = 24, 4
	hardSteps, minConflicts, seeded := 0, int64(-1), 0
	for trial := 0; trial < small+hard; trial++ {
		trial := trial
		hardChain := trial >= small
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7001 + 37*trial)))
			c0 := 4 + rng.Intn(5)  // column-0 prefix vars
			c1 := 3 + rng.Intn(5)  // column-1 prefix vars
			cl0, cl1 := 2*c0, 2*c1 // column-block clause counts
			if hardChain {
				// Four clauses per variable, just under the 3-SAT threshold.
				c0, c1 = 150, 100
				cl0, cl1 = 4*c0, 4*c1
			}
			n1 := c0 + c1
			pref := make([]int8, n1)
			for v := range pref {
				pref[v] = int8(rng.Intn(3)) - 1
			}
			randClause := func(nv, minW, maxW int) []Lit {
				w := minW + rng.Intn(maxW-minW+1)
				lits := make([]Lit, 0, w)
				for i := 0; i < w; i++ {
					v := rng.Intn(nv)
					if rng.Intn(2) == 0 {
						lits = append(lits, PosLit(v))
					} else {
						lits = append(lits, NegLit(v))
					}
				}
				return lits // duplicates and tautologies allowed: both paths must normalize alike
			}
			// A hard chain's clauses have three distinct variables.
			blockClause := func(nv int) []Lit {
				if hardChain {
					return randomClause(rng, nv, 3)
				}
				return randClause(nv, 2, 3)
			}
			col0 := make([][]Lit, 0, cl0)
			for i := 0; i < cl0; i++ {
				col0 = append(col0, blockClause(c0))
			}
			col1 := make([][]Lit, 0, cl1)
			for i := 0; i < cl1; i++ {
				col1 = append(col1, blockClause(n1))
			}

			inc := NewIncremental()
			for v := 0; v < n1; v++ {
				if iv := inc.NewVar(); iv != v {
					t.Fatalf("NewVar = %d, want %d", iv, v)
				}
				if pref[v] >= 0 {
					inc.Prefer(v, pref[v] == 1)
				}
			}
			perm := newPermBlock(n1)
			for _, c := range col0 {
				perm.add(c...)
			}
			p0 := perm.len()
			for _, c := range col1 {
				perm.add(c...)
			}
			p1 := perm.len()

			// Step 0 solves both columns, step 1 shrinks back to column 0
			// (the m=2 → m=1 transition of a real widening chain), step 2
			// regrows to both.
			var prevExports [][]Lit
			for si, cols := range []int{2, 1, 2} {
				nPrefix, activePerm, prefixClauses := c0, p0, col0
				if cols == 2 {
					nPrefix, activePerm = n1, p1
					prefixClauses = append(append([][]Lit{}, col0...), col1...)
				}
				for v := c0; v < n1; v++ {
					inc.SetInert(v, cols == 1)
				}

				nAux := 2 + rng.Intn(3)
				nGrpCl := 3 + rng.Intn(6)
				grp := make([][]Lit, 0, nGrpCl+2)
				for i := 0; i < nGrpCl; i++ {
					if hardChain {
						grp = append(grp, randomClause(rng, nPrefix+nAux, 3))
					} else {
						grp = append(grp, randClause(nPrefix+nAux, 2, 4))
					}
				}
				if si == 1 && !hardChain {
					// Force a likely-UNSAT step so the chain exercises both
					// verdicts: a contradictory unit pair over a prefix var.
					v := rng.Intn(nPrefix)
					grp = append(grp, []Lit{PosLit(v)}, []Lit{NegLit(v)})
				}

				// Seeds: the previous step's exports, restricted to the
				// active prefix (a real chain re-instantiates per active
				// column; out-of-range clauses would be skipped by one path
				// and kept by the other).
				var seeds [][]Lit
				for _, cl := range prevExports {
					ok := true
					for _, l := range cl {
						if l.Var() >= nPrefix {
							ok = false
							break
						}
					}
					if ok {
						seeds = append(seeds, cl)
					}
				}

				// Fresh twin: re-encode from scratch.
				f := NewFormula()
				for v := 0; v < nPrefix; v++ {
					f.NewVar()
					if pref[v] >= 0 {
						f.Prefer(v, pref[v] == 1)
					}
				}
				for _, c := range prefixClauses {
					f.Add(c...)
				}
				f.MarkStablePrefix()
				for j := 0; j < nAux; j++ {
					if av := f.NewVar(); av != nPrefix+j {
						t.Fatalf("fresh aux var = %d, want %d", av, nPrefix+j)
					}
				}
				for _, c := range grp {
					f.Add(c...)
				}
				lim := Limits{ExportStable: true}
				fr := SolveWarm(f, lim, &Warm{Clauses: seeds})

				// Incremental step: same group, aux vars translated.
				inc.BeginGroup()
				incAux := make([]int, nAux)
				for j := range incAux {
					incAux[j] = inc.NewGroupVar()
				}
				for _, c := range grp {
					tc := make([]Lit, len(c))
					for i, l := range c {
						if v := l.Var(); v >= nPrefix {
							if l.Sign() {
								tc[i] = NegLit(incAux[v-nPrefix])
							} else {
								tc[i] = PosLit(incAux[v-nPrefix])
							}
						} else {
							tc[i] = l
						}
					}
					inc.AddGroup(tc...)
				}
				ir := inc.SolveStep(perm.block(activePerm), lim, &Warm{Clauses: seeds})

				lockstepCompare(t, fr, ir, nPrefix, incAux)
				prevExports = fr.StableLearned
				if hardChain {
					hardSteps++
					if minConflicts < 0 || fr.Backtracks < minConflicts {
						minConflicts = fr.Backtracks
					}
					if len(seeds) > 0 {
						seeded++
					}
				}
			}
		})
	}
	if hardSteps == 0 {
		return // a -run filter left the hard chains out
	}
	if minConflicts < 100 || seeded == 0 {
		t.Fatalf("hard chains: fewest conflicts in a step %d (want at least 100), %d seeded steps (want some)", minConflicts, seeded)
	}
	t.Logf("hard chains: %d steps, at least %d conflicts each, %d seeded", hardSteps, minConflicts, seeded)
}

// TestIncrementalLockstepBacktrackLimit pins counter parity on the abort
// path: both sides must hit the backtrack budget at the same point.
func TestIncrementalLockstepBacktrackLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const n = 14
	clauses := make([][]Lit, 0, 90)
	for i := 0; i < 90; i++ {
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		clauses = append(clauses, []Lit{
			Lit(2*a + rng.Intn(2)), Lit(2*b + rng.Intn(2)), Lit(2*c + rng.Intn(2)),
		})
	}
	split := 40 // first clauses are the permanent prefix, the rest the group

	inc := NewIncremental()
	for v := 0; v < n; v++ {
		inc.NewVar()
	}
	perm := newPermBlock(n)
	for _, c := range clauses[:split] {
		perm.add(c...)
	}
	inc.BeginGroup()
	for _, c := range clauses[split:] {
		inc.AddGroup(c...)
	}

	f := NewFormula()
	for v := 0; v < n; v++ {
		f.NewVar()
	}
	for _, c := range clauses[:split] {
		f.Add(c...)
	}
	f.MarkStablePrefix()
	for _, c := range clauses[split:] {
		f.Add(c...)
	}

	for _, maxBT := range []int64{1, 3, 10} {
		lim := Limits{MaxBacktracks: maxBT, ExportStable: true}
		fr := SolveWarm(f, lim, nil)
		ir := inc.SolveStep(perm.block(perm.len()), lim, nil)
		lockstepCompare(t, fr, ir, n, nil)
	}
}

// TestIncrementalEmptyClauses pins the trivial-UNSAT short circuits: an
// empty group clause and an empty clause in the stable block must answer
// Unsat exactly as the fresh formula's hasEmpty check does, and an empty
// permanent clause left out of the block must not.
func TestIncrementalEmptyClauses(t *testing.T) {
	inc := NewIncremental()
	a := inc.NewVar()
	perm := newPermBlock(1)
	perm.add(PosLit(a))
	p0 := perm.len()
	inc.BeginGroup()
	inc.AddGroup(PosLit(a), NegLit(a)) // tautology: dropped
	inc.AddGroup()                     // empty: trivially unsat
	if r := inc.SolveStep(perm.block(p0), Limits{}, nil); r.Status != Unsat || r.Decisions != 0 {
		t.Fatalf("empty group clause: %+v, want immediate Unsat", r)
	}

	inc = NewIncremental()
	a = inc.NewVar()
	perm = newPermBlock(1)
	perm.add(PosLit(a))
	p0 = perm.len()
	perm.add() // empty, in column 2
	p1 := perm.len()
	inc.BeginGroup()
	inc.AddGroup(NegLit(a), PosLit(a), NegLit(a)) // tautology with duplicate
	if r := inc.SolveStep(perm.block(p0), Limits{}, nil); r.Status != Sat {
		t.Fatalf("active prefix before empty clause: %v, want Sat", r.Status)
	}
	inc.BeginGroup()
	if r := inc.SolveStep(perm.block(p1), Limits{}, nil); r.Status != Unsat || r.Decisions != 0 {
		t.Fatalf("active prefix covering empty clause: %+v, want immediate Unsat", r)
	}
}
