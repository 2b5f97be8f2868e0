package sat

import (
	"fmt"
	"math"
)

// Incremental is an assumption-based incremental front end over the DPLL
// engine for solve chains: many related formulas sharing a growing
// structural prefix (the edge-compatibility clauses of a widening chain)
// plus one short-lived group of per-problem clauses (the CSC pair
// constraints of the current attempt). Instead of re-encoding and
// re-loading the whole formula for every step, the prefix is kept
// resident and each step only swaps the group:
//
//   - Permanent clauses (AddPermanent) accumulate monotonically. A step
//     activates a prefix of them (clauses are appended column by column,
//     so a step solving fewer columns than have been encoded activates a
//     shorter prefix).
//   - Group clauses (AddGroup) each carry a trailing guard literal ¬A
//     for the group's assumption variable A (BeginGroup). A step assumes
//     A true at level 0, which makes the guards inert; retiring the
//     group is equivalent to assuming ¬A forever, which satisfies every
//     group clause — the implementation simply stops assembling them.
//   - Inert variables (SetInert: retired group variables, state
//     variables of inactive columns) are excluded from branching.
//
// SolveStep assembles the active clauses into persistent arenas and runs
// the standard search. The assembly reproduces, bit for bit, the solver
// state newSolver would build for the guard-free re-encoded formula:
// guard literals are excluded from branching scores (a guarded clause
// scores by its core), the guard variable and the inert variables never
// enter the order heap, the guard is placed on the trail with
// propagation starting past it, and the unit scan treats a one-literal
// core as a unit clause. The search trail, counters, learned clauses,
// stable exports and model are then identical (modulo the caller's
// variable translation, which preserves index order and so the heap's
// tie-break) to a fresh solve — which is what lets the csc layer pin the
// incremental path against the re-encode path in tests.
//
// Learned clauses are NOT retained across steps. They persist only
// through the caller's export/absorb/seed cycle (csc.WarmChain), so a
// cached step replayed from the chain leaves the solver in exactly the
// state a cold solve would.
type Incremental struct {
	numVars int
	prefer  []int8
	inert   []bool

	// Permanent clauses, flattened: clause i is permLits[permOff[i]:permOff[i+1]].
	permLits  []Lit
	permOff   []int32
	emptyPerm []int32 // indices of empty permanent clauses

	// Current assumption group. guard is -1 before the first BeginGroup.
	guard    int
	grpLits  []Lit // each clause ends with the ¬guard literal
	grpOff   []int32
	grpVars  []int // auxiliary variables owned by the current group
	grpEmpty bool

	// Reusable solver and assembly arenas.
	f         Formula // carries NumVars into the search core
	sol       solver
	arenaCl   []clause
	arenaPtrs []*clause
	arenaLits []Lit
	occ       []int32
	watchBack []int32
	pos, neg  []float64
	normBuf   []Lit
}

// NewIncremental returns an empty incremental solver.
func NewIncremental() *Incremental {
	return &Incremental{
		guard:   -1,
		permOff: []int32{0},
		grpOff:  []int32{0},
	}
}

// NumVars returns the number of allocated variables (including guards
// and retired group variables).
func (inc *Incremental) NumVars() int { return inc.numVars }

// NumPermanent returns the number of permanent clauses added so far;
// callers record it per column block to pick SolveStep's active prefix.
func (inc *Incremental) NumPermanent() int { return len(inc.permOff) - 1 }

// NewVar allocates a fresh variable.
func (inc *Incremental) NewVar() int {
	v := inc.numVars
	inc.numVars++
	inc.prefer = append(inc.prefer, -1)
	inc.inert = append(inc.inert, false)
	return v
}

// Prefer records a branching-polarity hint, as Formula.Prefer does.
func (inc *Incremental) Prefer(v int, value bool) {
	if value {
		inc.prefer[v] = 1
	} else {
		inc.prefer[v] = 0
	}
}

// SetInert marks v (not) inert. Inert variables take part in no active
// clause and never enter the order heap, so a step behaves as if they
// did not exist.
func (inc *Incremental) SetInert(v int, inert bool) { inc.inert[v] = inert }

// norm applies Formula.Add's literal normalization: duplicates removed,
// tautologies reported. The returned slice is valid until the next call.
func (inc *Incremental) norm(lits []Lit) ([]Lit, bool) {
	out := inc.normBuf[:0]
	for _, l := range lits {
		if l.Var() >= inc.numVars {
			panic(fmt.Sprintf("sat: literal %v beyond %d vars", l, inc.numVars))
		}
		dup := false
		for _, o := range out {
			if o == l.Neg() {
				inc.normBuf = out
				return nil, true
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
	inc.normBuf = out
	return out, false
}

// AddPermanent appends a permanent (structural prefix) clause. It
// returns the normalized core length and whether the clause was kept
// (tautologies are dropped, as Formula.Add drops them), so callers can
// maintain fresh-formula-equivalent size statistics.
func (inc *Incremental) AddPermanent(lits ...Lit) (int, bool) {
	out, taut := inc.norm(lits)
	if taut {
		return 0, false
	}
	if len(out) == 0 {
		inc.emptyPerm = append(inc.emptyPerm, int32(len(inc.permOff)-1))
	}
	inc.permLits = append(inc.permLits, out...)
	inc.permOff = append(inc.permOff, int32(len(inc.permLits)))
	return len(out), true
}

// BeginGroup retires the current assumption group — its guard and
// auxiliary variables become permanently inert, its clauses are dropped
// (equivalently: its guard is assumed false forever, satisfying them) —
// and opens a new one with a fresh guard variable.
func (inc *Incremental) BeginGroup() {
	if inc.guard >= 0 {
		inc.inert[inc.guard] = true
		for _, v := range inc.grpVars {
			inc.inert[v] = true
		}
	}
	inc.grpLits = inc.grpLits[:0]
	inc.grpOff = append(inc.grpOff[:0], 0)
	inc.grpVars = inc.grpVars[:0]
	inc.grpEmpty = false
	inc.guard = inc.NewVar()
}

// NewGroupVar allocates an auxiliary variable owned by the current
// group; it is retired with the group.
func (inc *Incremental) NewGroupVar() int {
	v := inc.NewVar()
	inc.grpVars = append(inc.grpVars, v)
	return v
}

// AddGroup appends a clause to the current group; the guard literal is
// attached internally. Return values as for AddPermanent.
func (inc *Incremental) AddGroup(lits ...Lit) (int, bool) {
	if inc.guard < 0 {
		panic("sat: AddGroup before BeginGroup")
	}
	out, taut := inc.norm(lits)
	if taut {
		return 0, false
	}
	if len(out) == 0 {
		inc.grpEmpty = true
	}
	inc.grpLits = append(inc.grpLits, out...)
	inc.grpLits = append(inc.grpLits, NegLit(inc.guard))
	inc.grpOff = append(inc.grpOff, int32(len(inc.grpLits)))
	return len(out), true
}

// grown returns s resized to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// SolveStep solves the conjunction of the first activePerm permanent
// clauses, the current group, and the warm seeds, under the group
// assumption. The result — verdict, model, counters, stable exports —
// is bit-identical to DPLLEngine.SolveWarm on the equivalent re-encoded
// formula (the same clauses without guards, over only the non-inert
// variables, in the same order, with the same seeds).
func (inc *Incremental) SolveStep(activePerm int, lim Limits, w *Warm) Result {
	s := inc.load(activePerm, w)
	if s == nil {
		return Result{Status: Unsat}
	}
	r := s.run(lim)
	inc.arenaPtrs = s.clauses[:0]
	return r
}

// load sets the reusable solver up for one step, as SolveStep describes,
// and returns it ready to run; nil means an active clause is empty, so
// the step is trivially unsatisfiable.
func (inc *Incremental) load(activePerm int, w *Warm) *solver {
	if inc.grpEmpty {
		return nil
	}
	for _, i := range inc.emptyPerm {
		if int(i) < activePerm {
			return nil
		}
	}

	n := inc.numVars
	inc.f.NumVars = n
	s := &inc.sol
	s.f = &inc.f
	s.res = Result{}
	s.actInc = 1
	s.analyzeStable = false
	s.trail = s.trail[:0]
	s.trailLo = 0
	s.limits = s.limits[:0]
	s.stableUnits = s.stableUnits[:0]

	s.vals = grown(s.vals, 2*n)
	s.level = grown(s.level, n)
	s.reason = grown(s.reason, n)
	s.activity = grown(s.activity, n)
	s.phase = grown(s.phase, n)
	s.heap = grown(s.heap, n)[:0]
	s.heapIdx = grown(s.heapIdx, n)
	s.act0 = grown(s.act0, n)
	s.seen = grown(s.seen, n)
	s.stab0 = grown(s.stab0, n)
	for i := range s.vals {
		s.vals[i] = -1
	}
	for v := 0; v < n; v++ {
		s.level[v] = 0
		s.reason[v] = -1
		s.activity[v] = 0
		s.seen[v] = false
		s.stab0[v] = false
	}
	if cap(s.watches) >= 2*n {
		s.watches = s.watches[:2*n]
	} else {
		s.watches = make([][]int32, 2*n)
	}

	// Assemble the active clause lits into one arena: permanent prefix,
	// then the guarded group, then seeds (mirroring solver.seed's skip
	// rules so counts line up before the copy).
	nGrp := len(inc.grpOff) - 1
	if inc.guard < 0 {
		nGrp = 0
	}
	nCl := activePerm + nGrp
	permLits := int(inc.permOff[activePerm])
	coreLits := permLits + len(inc.grpLits)
	nSeed, seedLits := 0, 0
	if w != nil {
		for _, c := range w.Clauses {
			if seedUsable(c, n) {
				nSeed++
				seedLits += len(c)
			}
		}
	}
	inc.arenaCl = grown(inc.arenaCl, nCl+nSeed)
	inc.arenaLits = grown(inc.arenaLits, coreLits+seedLits)
	copy(inc.arenaLits, inc.permLits[:permLits])
	copy(inc.arenaLits[permLits:], inc.grpLits)

	// Branching scores and watch-occurrence counts, exactly as newSolver
	// computes them for the guard-free formula: a guarded clause scores
	// by its core, so the guard variable accumulates no activity.
	pos := grown(inc.pos, n)
	neg := grown(inc.neg, n)
	for v := 0; v < n; v++ {
		pos[v], neg[v] = 0, 0
	}
	inc.pos, inc.neg = pos, neg
	occ := grown(inc.occ, 2*n)
	for i := range occ {
		occ[i] = 0
	}
	inc.occ = occ
	clauseAt := func(i int) ([]Lit, bool) {
		if i < activePerm {
			return inc.arenaLits[inc.permOff[i]:inc.permOff[i+1]], false
		}
		j := i - activePerm
		return inc.arenaLits[permLits+int(inc.grpOff[j]) : permLits+int(inc.grpOff[j+1])], true
	}
	for i := 0; i < nCl; i++ {
		lits, guarded := clauseAt(i)
		core := lits
		if guarded {
			core = lits[:len(lits)-1]
		}
		w := math.Pow(2, -float64(len(core)))
		for _, l := range core {
			if l.Sign() {
				neg[l.Var()] += w
			} else {
				pos[l.Var()] += w
			}
		}
		if len(lits) >= 2 {
			occ[lits[0]]++
			occ[lits[1]]++
		}
	}
	total := int32(0)
	for _, o := range occ {
		total += o
	}
	inc.watchBack = grown(inc.watchBack, int(total))
	off := int32(0)
	for l := 0; l < 2*n; l++ {
		o := occ[l]
		s.watches[l] = inc.watchBack[off : off : off+o]
		off += o
	}

	s.clauses = inc.arenaPtrs[:0]
	for i := 0; i < nCl; i++ {
		lits, guarded := clauseAt(i)
		cl := &inc.arenaCl[i]
		cl.lits = lits
		cl.learned = false
		cl.stable = !guarded
		cl.guarded = guarded
		ci := int32(len(s.clauses))
		s.clauses = append(s.clauses, cl)
		if len(lits) >= 2 {
			s.watches[lits[0]] = append(s.watches[lits[0]], ci)
			s.watches[lits[1]] = append(s.watches[lits[1]], ci)
		}
	}
	if w != nil {
		litOff, seedIdx := coreLits, nCl
		for _, c := range w.Clauses {
			if !seedUsable(c, n) {
				continue
			}
			copy(inc.arenaLits[litOff:], c)
			cl := &inc.arenaCl[seedIdx]
			seedIdx++
			cl.lits = inc.arenaLits[litOff : litOff+len(c) : litOff+len(c)]
			litOff += len(c)
			cl.learned = true
			cl.stable = true
			cl.guarded = false
			ci := int32(len(s.clauses))
			s.clauses = append(s.clauses, cl)
			if len(cl.lits) >= 2 {
				s.watches[cl.lits[0]] = append(s.watches[cl.lits[0]], ci)
				s.watches[cl.lits[1]] = append(s.watches[cl.lits[1]], ci)
			}
		}
	}

	// The order heap holds the live variables only — the image, under the
	// chain's variable translation, of the fresh formula's full order.
	for v := 0; v < n; v++ {
		if inc.inert[v] || v == inc.guard {
			s.heapIdx[v] = excluded
			continue
		}
		s.heapIdx[v] = int32(len(s.heap))
		s.heap = append(s.heap, int32(v))
		s.activity[v] = pos[v] + neg[v]
		switch inc.prefer[v] {
		case 0:
			s.phase[v] = false
		case 1:
			s.phase[v] = true
		default:
			s.phase[v] = pos[v] >= neg[v]
		}
	}
	copy(s.act0, s.activity)
	s.heapify()

	// Assume the guard at level 0 and start propagation past it, so the
	// guard's (inert) watch list is never scanned and the trail beyond
	// this point matches the fresh solve position for position.
	if inc.guard >= 0 {
		s.vals[PosLit(inc.guard)] = 1
		s.vals[NegLit(inc.guard)] = 0
		s.level[inc.guard] = 0
		s.reason[inc.guard] = -1
		s.trail = append(s.trail, PosLit(inc.guard))
		s.trailLo = len(s.trail)
	}
	return s
}

// seedUsable mirrors solver.seed's skip rules (empty or out-of-range
// clauses are ignored) so the arena can be sized before installing.
func seedUsable(c []Lit, numVars int) bool {
	if len(c) == 0 {
		return false
	}
	for _, l := range c {
		if l.Var() >= numVars {
			return false
		}
	}
	return true
}
