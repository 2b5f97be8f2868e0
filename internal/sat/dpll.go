package sat

import (
	"context"
	"math"
	"sync/atomic"
)

// Status is a solver outcome.
type Status int

const (
	// Sat: a model was found.
	Sat Status = iota
	// Unsat: the formula was proven unsatisfiable.
	Unsat
	// BacktrackLimit: the search budget was exhausted before a verdict
	// (the outcome Table 1 reports for the direct method on large
	// instances).
	BacktrackLimit
	// Canceled: the search's context was canceled before a verdict.
	// Callers translate this to synerr.ErrCanceled; it never appears in
	// synthesis output.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case BacktrackLimit:
		return "BACKTRACK-LIMIT"
	case Canceled:
		return "CANCELED"
	}
	return "?"
}

// Result carries the solver outcome and search statistics.
type Result struct {
	Status     Status
	Model      []bool // valid when Status == Sat
	Decisions  int64
	Backtracks int64 // conflicts encountered
	Props      int64
	Learned    int64
	Restarts   int64
	Flips      int64 // local-search flips (WalkSAT only)
	// StableLearned holds the learned clauses (including learned units)
	// whose derivations used only the formula's stable prefix — and so
	// remain implied by any later formula containing that same prefix.
	// Populated only when Limits.ExportStable is set.
	StableLearned [][]Lit
}

// Limits bounds the search. Zero values mean unlimited.
type Limits struct {
	// MaxBacktracks bounds the number of conflicts (the branch-and-bound
	// backtrack budget of the paper's experimental setup).
	MaxBacktracks int64
	MaxDecisions  int64
	// Cancel, when non-nil, is polled at every decision: a true value
	// stops the search with BacktrackLimit. Used by the portfolio racer
	// to reap losing engines; a cancelled result is always discarded by
	// the caller, so the status choice never reaches synthesis output.
	Cancel *atomic.Bool
	// Ctx, when non-nil, is polled every few branch-loop iterations: a
	// canceled context stops the search promptly with Canceled, so a
	// synthesis run under deadline returns from the middle of a long
	// DPLL search. Polling never changes the search when the context
	// stays live, so results are bit-identical with or without it.
	Ctx context.Context
	// ExportStable collects the stable learned clauses into
	// Result.StableLearned (see Formula.MarkStablePrefix). Tracking is
	// always on — it never changes the search — so enabling the export
	// only pays the final copy.
	ExportStable bool
}

// Solve runs a conflict-driven DPLL procedure: two-watched-literal unit
// propagation, first-UIP clause learning with non-chronological
// backjumping, VSIDS-style activities with an order heap for the
// decisions (see order.go), phase saving and geometric restarts. This
// plays the role of the SIS branch-and-bound SAT program in the paper's
// flow (which likewise backtracked non-chronologically); exceeding the
// backtrack budget yields BacktrackLimit. The search is deterministic:
// branching ties break by a fixed initial rank, never by heap layout.
func Solve(f *Formula, lim Limits) Result {
	if f.hasEmpty {
		return Result{Status: Unsat}
	}
	s := newSolver(f)
	return s.run(lim)
}

type clause struct {
	lits    []Lit
	learned bool
	// stable: the clause is part of the formula's stable prefix, a warm
	// seed derived from it, or a learned clause whose entire derivation
	// (conflict clause, reason clauses, level-0 antecedents) is stable.
	stable bool
	// guarded: the clause's last literal is a group assumption guard
	// (incremental solving, see Incremental). The guard is appended
	// after the core literals and its variable is assumed true at level
	// 0, so the literal is permanently false and inert in propagation;
	// only the unit scan must look through it (a one-literal core behaves
	// as a unit clause, exactly as its unguarded twin would).
	guarded bool
}

type solver struct {
	f       *Formula
	vals    []int8 // per literal: 1 true, 0 false, -1 unassigned
	level   []int32
	reason  []int32 // clause index or -1
	watches [][]int32
	clauses []*clause
	trail   []Lit
	trailLo int
	limits  []int // trail index where each decision level starts

	activity []float64
	actInc   float64
	phase    []bool
	// The branching order (order.go): heap holds variables, heapIdx[v]
	// is v's position in it (or notInHeap, excluded), and act0 is the
	// activity at setup, the tie-break between equal activities.
	heap    []int32
	heapIdx []int32
	act0    []float64
	res     Result

	seen    []bool
	tmpLits []Lit

	// stab0[v] records whether variable v's level-0 assignment was
	// derived purely from stable clauses: conflict analysis skips
	// level-0 literals, so a learned clause silently depends on them.
	stab0 []bool
	// analyzeStable is the stability of the most recent analyze() result.
	analyzeStable bool
	// stableUnits collects stable learned unit clauses, which are
	// enqueued directly rather than added to the clause list.
	stableUnits []Lit
}

func newSolver(f *Formula) *solver {
	n := f.NumVars
	s := &solver{
		f:        f,
		vals:     make([]int8, 2*n),
		level:    make([]int32, n),
		reason:   make([]int32, n),
		watches:  make([][]int32, 2*n),
		activity: make([]float64, n),
		actInc:   1,
		phase:    make([]bool, n),
		heap:     make([]int32, n),
		heapIdx:  make([]int32, n),
		act0:     make([]float64, n),
		seen:     make([]bool, n),
		stab0:    make([]bool, n),
	}
	for i := range s.vals {
		s.vals[i] = -1
	}
	for i := range s.reason {
		s.reason[i] = -1
	}
	posScore := make([]float64, n)
	negScore := make([]float64, n)
	// First pass: branching scores plus a per-literal watch count, so the
	// watch lists can be carved out of one backing array with exact
	// capacities instead of growing by repeated append in the hot loop.
	occ := make([]int32, 2*n)
	totalLits := 0
	for _, c := range f.Clauses {
		totalLits += len(c)
		w := math.Pow(2, -float64(len(c)))
		for _, l := range c {
			if l.Sign() {
				negScore[l.Var()] += w
			} else {
				posScore[l.Var()] += w
			}
		}
		if len(c) >= 2 {
			occ[c[0]]++
			occ[c[1]]++
		}
	}
	total := int32(0)
	for _, o := range occ {
		total += o
	}
	backing := make([]int32, total)
	off := int32(0)
	for l, o := range occ {
		// Full slice expressions cap each list at its initial count: a
		// list that later outgrows it (watch migration, learned clauses)
		// reallocates on append instead of clobbering its neighbor.
		s.watches[l] = backing[off : off : off+o]
		off += o
	}
	s.clauses = make([]*clause, 0, len(f.Clauses))
	stablePrefix := f.StablePrefix()
	// Two batch allocations instead of two per clause: propagation swaps
	// literals in place, so each clause needs its own copy, but the copies
	// can all live in one backing array (exact capacity: append never
	// reallocates, so the carved sub-slices stay valid).
	clBack := make([]clause, len(f.Clauses))
	litBack := make([]Lit, 0, totalLits)
	for i, c := range f.Clauses {
		cl := &clBack[i]
		lo := len(litBack)
		litBack = append(litBack, c...)
		cl.lits = litBack[lo:len(litBack):len(litBack)]
		cl.stable = i < stablePrefix
		ci := int32(len(s.clauses))
		s.clauses = append(s.clauses, cl)
		if len(cl.lits) >= 2 {
			s.watches[cl.lits[0]] = append(s.watches[cl.lits[0]], ci)
			s.watches[cl.lits[1]] = append(s.watches[cl.lits[1]], ci)
		}
	}
	for i := 0; i < n; i++ {
		s.heap[i] = int32(i)
		s.heapIdx[i] = int32(i)
		s.activity[i] = posScore[i] + negScore[i]
		switch f.Preferred(i) {
		case 0:
			s.phase[i] = false
		case 1:
			s.phase[i] = true
		default:
			s.phase[i] = posScore[i] >= negScore[i]
		}
	}
	copy(s.act0, s.activity)
	s.heapify()
	return s
}

func (s *solver) value(l Lit) int8 { return s.vals[l] }

func (s *solver) decisionLevel() int { return len(s.limits) }

func (s *solver) enqueue(l Lit, reason int32) bool {
	switch s.value(l) {
	case 1:
		return true
	case 0:
		return false
	}
	s.vals[l] = 1
	s.vals[l.Neg()] = 0
	v := l.Var()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	if s.decisionLevel() == 0 && reason >= 0 {
		// Level-0 assignments are permanent and invisible to analyze();
		// record whether this one rests entirely on stable clauses.
		cl := s.clauses[reason]
		st := cl.stable
		if st {
			for _, q := range cl.lits {
				if q.Var() != v && !s.stab0[q.Var()] {
					st = false
					break
				}
			}
		}
		s.stab0[v] = st
	}
	return true
}

// propagate runs unit propagation; returns the conflicting clause index
// or -1.
func (s *solver) propagate() int32 {
	for s.trailLo < len(s.trail) {
		l := s.trail[s.trailLo]
		s.trailLo++
		s.res.Props++
		falsified := l.Neg()
		ws := s.watches[falsified]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			cl := s.clauses[ci].lits
			if cl[0] == falsified {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if s.value(cl[0]) == 1 {
				kept = append(kept, ci)
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != 0 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1]] = append(s.watches[cl[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, ci)
			if !s.enqueue(cl[0], ci) {
				kept = append(kept, ws[i+1:]...)
				s.watches[falsified] = kept
				return ci
			}
		}
		s.watches[falsified] = kept
	}
	return -1
}

func (s *solver) bump(v int) {
	s.activity[v] += s.actInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.actInc *= 1e-100
		s.heapify()
		return
	}
	if i := s.heapIdx[v]; i >= 0 {
		s.siftUp(int(i))
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
func (s *solver) analyze(confl int32) ([]Lit, int) {
	learned := s.tmpLits[:0]
	learned = append(learned, 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	reason := confl
	stable := true

	for {
		rc := s.clauses[reason]
		stable = stable && rc.stable
		cl := rc.lits
		start := 0
		if p != -1 {
			// Skip the asserting literal of the reason clause.
			start = 1
		}
		for k := start; k < len(cl); k++ {
			q := cl[k]
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				if s.level[v] == 0 && !s.seen[v] {
					// The literal is dropped from the learned clause
					// because its level-0 complement justifies it — so
					// the derivation leans on that assignment too.
					stable = stable && s.stab0[v]
				}
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find the next literal of the current level on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		reason = s.reason[p.Var()]
	}
	learned[0] = p.Neg()

	// Backjump level: highest level among the other literals.
	back := 0
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].Var()]) > back {
			back = int(s.level[learned[i].Var()])
		}
	}
	// Move one literal of the backjump level to position 1 for watching.
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].Var()]) == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	for _, l := range learned {
		s.seen[l.Var()] = false
	}
	s.tmpLits = learned
	s.analyzeStable = stable
	return learned, back
}

func (s *solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.limits[lvl]
	for i := len(s.trail) - 1; i >= lo; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign()
		s.vals[l] = -1
		s.vals[l.Neg()] = -1
		s.reason[v] = -1
		s.heapInsert(v)
	}
	s.trail = s.trail[:lo]
	s.trailLo = lo
	s.limits = s.limits[:lvl]
}

func (s *solver) addLearned(lits []Lit) int32 {
	cl := &clause{lits: append([]Lit(nil), lits...), learned: true, stable: s.analyzeStable}
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, cl)
	if len(cl.lits) >= 2 {
		s.watches[cl.lits[0]] = append(s.watches[cl.lits[0]], ci)
		s.watches[cl.lits[1]] = append(s.watches[cl.lits[1]], ci)
	}
	s.res.Learned++
	return ci
}

func (s *solver) run(lim Limits) Result {
	res := s.search(lim)
	if lim.ExportStable && res.Status != Canceled {
		for _, cl := range s.clauses {
			if cl.learned && cl.stable {
				res.StableLearned = append(res.StableLearned, append([]Lit(nil), cl.lits...))
			}
		}
		for _, l := range s.stableUnits {
			res.StableLearned = append(res.StableLearned, []Lit{l})
		}
	}
	return res
}

func (s *solver) search(lim Limits) Result {
	// An already-canceled context never starts the search: small formulas
	// can otherwise finish before the branch loop's first poll comes due.
	if lim.Ctx != nil && lim.Ctx.Err() != nil {
		s.res.Status = Canceled
		return s.res
	}
	// Level-0 units.
	for ci, c := range s.clauses {
		u := len(c.lits)
		if c.guarded {
			// The trailing guard literal is already false under the level-0
			// assumption, so the core alone decides unit-ness.
			u--
		}
		if u == 1 {
			if !s.enqueue(c.lits[0], int32(ci)) {
				s.res.Status = Unsat
				return s.res
			}
		}
	}
	if s.propagate() >= 0 {
		s.res.Status = Unsat
		return s.res
	}

	conflictsSinceRestart := int64(0)
	restartLimit := int64(128)

	var loops int64
	for {
		// The branch loop is the search's only unbounded loop, so this
		// is the cancellation point: cheap enough to poll every few
		// iterations (conflicts and decisions both pass through here),
		// frequent enough that a canceled run returns within
		// microseconds, not after the backtrack budget.
		loops++
		if lim.Ctx != nil && loops&127 == 0 && lim.Ctx.Err() != nil {
			s.res.Status = Canceled
			return s.res
		}
		confl := s.propagate()
		if confl >= 0 {
			s.res.Backtracks++
			conflictsSinceRestart++
			if lim.MaxBacktracks > 0 && s.res.Backtracks > lim.MaxBacktracks {
				s.res.Status = BacktrackLimit
				return s.res
			}
			if s.decisionLevel() == 0 {
				s.res.Status = Unsat
				return s.res
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], -1) {
					s.res.Status = Unsat
					return s.res
				}
				// The learned unit holds at level 0 with no recorded
				// reason clause; carry analyze's stability verdict.
				s.stab0[learned[0].Var()] = s.analyzeStable
				if s.analyzeStable {
					s.stableUnits = append(s.stableUnits, learned[0])
				}
			} else {
				ci := s.addLearned(learned)
				s.enqueue(learned[0], ci)
			}
			s.actInc /= 0.95
			continue
		}

		if conflictsSinceRestart >= restartLimit {
			conflictsSinceRestart = 0
			restartLimit += restartLimit / 2
			s.res.Restarts++
			s.cancelUntil(0)
			continue
		}

		v := s.pickVar()
		if v < 0 {
			s.res.Status = Sat
			s.res.Model = make([]bool, s.f.NumVars)
			for i := range s.res.Model {
				s.res.Model[i] = s.vals[PosLit(i)] == 1
			}
			return s.res
		}
		s.res.Decisions++
		if lim.MaxDecisions > 0 && s.res.Decisions > lim.MaxDecisions {
			s.res.Status = BacktrackLimit
			return s.res
		}
		if lim.Cancel != nil && lim.Cancel.Load() {
			s.res.Status = BacktrackLimit
			return s.res
		}
		var dec Lit
		if s.phase[v] {
			dec = PosLit(v)
		} else {
			dec = NegLit(v)
		}
		s.limits = append(s.limits, len(s.trail))
		s.enqueue(dec, -1)
	}
}
