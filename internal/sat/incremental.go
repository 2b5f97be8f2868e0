package sat

import "fmt"

// Incremental is an assumption-based incremental front end over the DPLL
// engine for solve chains: many related formulas sharing a growing
// structural prefix (the edge-compatibility clauses of a widening chain)
// plus one short-lived group of per-problem clauses (the CSC pair
// constraints of the current attempt). Instead of re-encoding and
// re-loading the whole formula for every step, the variables and their
// branching hints stay allocated and each step only swaps the group:
//
//   - The stable block (Block) is the step's structural prefix. The
//     caller writes it straight into the solver's clause arena at every
//     step, flagged stable, so the solver keeps no copy of it: a caller
//     that can generate the prefix (csc.ChainSolver generates the edge
//     blocks of the active columns from the graph) writes each formula
//     once.
//   - Group clauses (AddGroup) each carry a trailing guard literal ¬A
//     for the group's assumption variable A (BeginGroup). A step assumes
//     A true at level 0, which makes the guards inert; retiring the
//     group is equivalent to assuming ¬A forever, which satisfies every
//     group clause — the implementation simply stops assembling them.
//   - Inert variables (SetInert: retired group variables, state
//     variables of inactive columns) are excluded from branching.
//
// SolveStep presizes the reused solver's arena to the block, the group
// and the warm seeds, has the block written into it, appends the group
// (kept in the arena format: a header word, then the literals; see
// dpll.go), then installs the seeds and runs the standard search. The
// load reproduces, bit for bit, the solver state newSolver would build for
// the guard-free re-encoded formula: guard literals are excluded from
// branching scores (a guarded clause scores by its core), the guard
// variable and the inert variables never enter the branching order, the
// guard is placed on the trail with propagation starting past it, and
// the unit scan treats a one-literal core as a unit clause. The search
// trail, counters, learned clauses, stable exports and model are then
// identical (modulo the caller's variable translation, which preserves
// index order and so the initial rank) to a fresh solve — which is what
// lets the csc layer check every step against a from-scratch solve of
// its one-shot formula in tests.
//
// Learned clauses are NOT retained across steps. They persist only
// through the caller's export/absorb/seed cycle (csc.WarmChain), so a
// cached step replayed from the chain leaves the solver in exactly the
// state a cold solve would.
type Incremental struct {
	numVars int
	prefer  []int8
	inert   []bool

	// Current assumption group. guard is -1 before the first BeginGroup.
	guard   int
	grp     []Lit // arena format, flagged guarded: each clause ends with ¬guard
	grpVars []int // auxiliary variables owned by the current group

	// The reusable solver, whose arena and setup buffers carry over
	// from step to step.
	f       Formula // carries NumVars into the search core
	sol     solver
	normBuf []Lit
}

// Block is the stable prefix of one Incremental step, written by the
// caller into the solver's clause arena.
type Block struct {
	// Clauses and Literals are the number of clauses Append writes and
	// their total literal count; SolveStep sizes the arena by them.
	Clauses, Literals int
	// Append appends the clauses to arena with AppendStable, in formula
	// order, and returns the extended arena. Each clause must be
	// normalized as Formula.Add normalizes (no duplicate literal, no
	// complementary pair) and mention only allocated variables.
	Append func(arena []Lit) []Lit
}

// AppendStable appends lits to arena as one clause of a Block.
func AppendStable(arena []Lit, lits ...Lit) []Lit {
	return appendClause(arena, lits, flagStable)
}

// NewIncremental returns an empty incremental solver.
func NewIncremental() *Incremental { return &Incremental{guard: -1} }

// NumVars returns the number of allocated variables (including guards
// and retired group variables).
func (inc *Incremental) NumVars() int { return inc.numVars }

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
// clause and never enter the branching order, so a step behaves as if
// they did not exist.
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
	inc.grp = inc.grp[:0]
	inc.grpVars = inc.grpVars[:0]
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
// attached internally. It returns the normalized core length and whether
// the clause was kept (tautologies are dropped, as Formula.Add drops
// them), so callers can maintain fresh-formula-equivalent size
// statistics.
func (inc *Incremental) AddGroup(lits ...Lit) (int, bool) {
	if inc.guard < 0 {
		panic("sat: AddGroup before BeginGroup")
	}
	out, taut := inc.norm(lits)
	if taut {
		return 0, false
	}
	core := len(out)
	inc.normBuf = append(out, NegLit(inc.guard))
	inc.grp = appendClause(inc.grp, inc.normBuf, flagGuarded)
	return core, true
}

// SolveStep solves the conjunction of the stable block b, the current
// group, and the warm seeds, under the group assumption. b's clauses,
// the group and then the seeds are written once, into the reused
// solver's arena, presized to hold exactly them. The result — verdict,
// model, counters, stable exports — is bit-identical to SolveWarm on the
// equivalent re-encoded formula (b's clauses, marked as the stable
// prefix, then the group's without guards, over only the non-inert
// variables, in the same order, with the same seeds).
func (inc *Incremental) SolveStep(b Block, lim Limits, w *Warm) Result {
	s := inc.load(b, w)
	if s == nil {
		return Result{Status: Unsat}
	}
	return s.run(lim)
}

// load sets the reusable solver up for one step, as SolveStep describes,
// and returns it ready to run; nil means an active clause is empty, so
// the step is trivially unsatisfiable.
func (inc *Incremental) load(b Block, w *Warm) *solver {
	inc.f.NumVars = inc.numVars
	s := &inc.sol
	s.f = &inc.f
	words := b.Clauses + b.Literals // a header word per clause
	if need := words + len(inc.grp) + w.words(inc.numVars); cap(s.arena) < need {
		s.arena = make([]Lit, 0, need)
	}
	s.arena = b.Append(s.arena[:0])
	if len(s.arena) != words {
		panic(fmt.Sprintf("sat: block of %d clauses and %d literals wrote %d arena words, want %d", b.Clauses, b.Literals, len(s.arena), words))
	}
	s.arena = append(s.arena, inc.grp...)
	// The branching order holds the live variables only: the image, under
	// the chain's variable translation, of the fresh formula's full order.
	if s.setup(inc.numVars, inc.prefer, inc.inert, inc.guard, w) {
		return nil
	}
	if w != nil {
		for _, c := range w.Clauses {
			s.seed(c)
		}
	}

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
