package sat

import (
	"context"
	"math"
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
// backjumping, VSIDS-style activities with a two-tier branching order
// for the decisions (never-bumped variables by initial rank, bumped ones
// in an order heap; see order.go), phase saving and geometric restarts.
// This plays the role of the SIS branch-and-bound SAT program in the
// paper's flow (which likewise backtracked non-chronologically);
// exceeding the backtrack budget yields BacktrackLimit. The search is
// deterministic: branching ties break by a fixed initial rank, never by
// the layout of the order's data structures.
func Solve(f *Formula, lim Limits) Result { return SolveWarm(f, lim, nil) }

// The clause arena. Every clause of a search, original, warm seed or
// learned, lives in one []Lit as a header word followed by its literals,
// and a clause is referenced by the offset of its header: reasons and
// watch lists hold offsets. The header holds the literal count above
// hdrShift and the flags below it. Clauses stay in the order they were
// added, which is the order the unit scan and the stable export walk.
const (
	// flagLearned marks a learned clause or a warm seed.
	flagLearned Lit = 1 << iota
	// flagStable marks a clause of the formula's stable prefix, a warm
	// seed derived from it, or a learned clause whose entire derivation
	// (conflict clause, reason clauses, level-0 antecedents) is stable.
	flagStable
	// flagGuarded marks a clause whose last literal is a group assumption
	// guard (incremental solving, see Incremental). The guard is appended
	// after the core literals and its variable is assumed true at level
	// 0, so the literal is permanently false and inert in propagation;
	// only the unit scan and the branching scores look through it (a
	// one-literal core behaves as a unit clause, exactly as its unguarded
	// twin would).
	flagGuarded

	hdrShift = 3
)

// appendClause appends lits to arena as one clause with the given flags.
func appendClause(arena, lits []Lit, flags Lit) []Lit {
	arena = append(arena, Lit(len(lits))<<hdrShift|flags)
	return append(arena, lits...)
}

// scoreWeight[k] is 2^-k, the branching score a clause of k core
// literals adds to each of them; setup falls back to math.Ldexp, which
// gives the same values, past the table's end.
var scoreWeight = func() (w [64]float64) {
	for k := range w {
		w[k] = math.Ldexp(1, -k)
	}
	return w
}()

type solver struct {
	f       *Formula
	vals    []int8 // per literal: 1 true, 0 false, -1 unassigned
	level   []int32
	reason  []int32 // clause reference or -1
	watches [][]int32
	arena   []Lit
	trail   []Lit
	trailLo int
	limits  []int // trail index where each decision level starts

	activity []float64
	actInc   float64
	phase    []bool
	// The branching order (order.go). rank[v] is v's place in the initial
	// order, the tie-break between equal activities, and order[r] is the
	// variable of rank r. The rank tier is the set bits of ranks, with no
	// bit set in a word below cursor; the heap tier holds one slot per
	// bumped variable in it. heapIdx[v] is v's heap position, or unbumped,
	// notInHeap or excluded.
	order   []int32
	rank    []int32
	ranks   []uint64
	cursor  int
	heap    []slot
	heapIdx []int32
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

	// Setup scratch, kept so an Incremental step reuses it: branching
	// scores per variable, watch counts per literal and the watch lists'
	// shared backing array.
	pos, neg  []float64
	occ       []int32
	watchBack []int32
}

// newSolver builds a solver for f: f's clauses are copied into the
// arena, the first StablePrefix of them flagged stable, and setup scores
// them and builds the watch lists and the branching order, with room in
// the arena and the watch lists for the seeds of w that the caller
// installs next.
func newSolver(f *Formula, w *Warm) *solver {
	s := &solver{f: f}
	s.arena = make([]Lit, 0, len(f.Clauses)+f.NumLiterals()+w.words(f.NumVars))
	stablePrefix := f.StablePrefix()
	for i, c := range f.Clauses {
		flags := Lit(0)
		if i < stablePrefix {
			flags = flagStable
		}
		s.arena = appendClause(s.arena, c, flags)
	}
	s.setup(f.NumVars, f.prefer, nil, -1, w) // callers turn away a formula with an empty clause
	return s
}

// grown returns s resized to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// setup readies the solver to search the clauses in its arena over n
// variables, reusing its buffers: no variable is assigned, each clause
// adds 2^-k to the branching score of every literal of its k-literal
// core (a guard is not core), the watch lists are carved out of one
// backing array with exact capacities for the arena's clauses and the
// seeds of w (which the caller installs after setup, so they score
// nothing) and filled in clause order, and every variable but the guard
// and those marked in inert is ranked and enters the branching order's
// rank tier, with the heap empty. A variable's initial activity is its
// score sum; its phase is its prefer hint, or the sign it scored higher
// with. setup reports whether a clause's core is empty, which makes the
// formula unsatisfiable.
func (s *solver) setup(n int, prefer []int8, inert []bool, guard int, w *Warm) (empty bool) {
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
	s.heapIdx = grown(s.heapIdx, n)
	s.rank = grown(s.rank, n)
	s.seen = grown(s.seen, n)
	s.stab0 = grown(s.stab0, n)
	pos := grown(s.pos, n)
	neg := grown(s.neg, n)
	s.pos, s.neg = pos, neg
	for i := range s.vals {
		s.vals[i] = -1
	}
	for v := 0; v < n; v++ {
		s.level[v] = 0
		s.reason[v] = -1
		s.seen[v] = false
		s.stab0[v] = false
		pos[v], neg[v] = 0, 0
	}

	// One pass for the branching scores and the per-literal watch counts,
	// so the watch lists can be carved out of one backing array with
	// exact capacities instead of growing by repeated append.
	occ := grown(s.occ, 2*n)
	for i := range occ {
		occ[i] = 0
	}
	s.occ = occ
	a := s.arena
	for cr := 0; cr < len(a); {
		h := a[cr]
		k := int(h >> hdrShift)
		lits := a[cr+1 : cr+1+k]
		cr += 1 + k
		if k >= 2 {
			occ[lits[0]]++
			occ[lits[1]]++
		}
		if h&flagGuarded != 0 {
			lits = lits[:k-1]
		}
		var w float64
		if len(lits) < len(scoreWeight) {
			w = scoreWeight[len(lits)]
		} else {
			w = math.Ldexp(1, -len(lits))
		}
		empty = empty || len(lits) == 0
		for _, l := range lits {
			if l.Sign() {
				neg[l.Var()] += w
			} else {
				pos[l.Var()] += w
			}
		}
	}
	if w != nil {
		for _, lits := range w.Clauses {
			if len(lits) >= 2 && seedable(lits, n) {
				occ[lits[0]]++
				occ[lits[1]]++
			}
		}
	}
	total := 0
	for _, o := range occ {
		total += int(o)
	}
	s.watchBack = grown(s.watchBack, total)
	s.watches = grown(s.watches, 2*n)
	off := int32(0)
	for l, o := range occ {
		// Full slice expressions cap each list at its initial count: a
		// list that later outgrows it (watch migration, learned clauses)
		// reallocates on append instead of clobbering its neighbor.
		s.watches[l] = s.watchBack[off : off : off+o]
		off += o
	}
	for cr := int32(0); cr < int32(len(a)); cr += 1 + int32(a[cr]>>hdrShift) {
		s.watch(cr)
	}

	h := grown(s.heap, n)[:0]
	for v := 0; v < n; v++ {
		s.activity[v] = pos[v] + neg[v]
		if v == guard || inert != nil && inert[v] {
			s.heapIdx[v] = excluded
			continue
		}
		p := int8(-1)
		if v < len(prefer) {
			p = prefer[v]
		}
		switch p {
		case 0:
			s.phase[v] = false
		case 1:
			s.phase[v] = true
		default:
			s.phase[v] = pos[v] >= neg[v]
		}
		h = append(h, slot{act: s.activity[v], v: int32(v)})
	}
	s.rankOrder(h)
	return empty
}

// watch adds the clause at cr to the watch lists of its first two
// literals; a unit clause is watched by none.
func (s *solver) watch(cr int32) {
	if s.arena[cr]>>hdrShift >= 2 {
		l0, l1 := s.arena[cr+1], s.arena[cr+2]
		s.watches[l0] = append(s.watches[l0], cr)
		s.watches[l1] = append(s.watches[l1], cr)
	}
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
		h := s.arena[reason]
		st := h&flagStable != 0
		if st {
			for _, q := range s.arena[reason+1 : reason+1+int32(h>>hdrShift)] {
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

// propagate runs unit propagation; returns the conflicting clause's
// reference or -1. A visited clause always gets its falsified watch in
// second place, even when the other watch is already true: the literal
// order is part of the search's output (the stable export hands learned
// clauses on verbatim).
func (s *solver) propagate() int32 {
	arena, vals := s.arena, s.vals
	for s.trailLo < len(s.trail) {
		l := s.trail[s.trailLo]
		s.trailLo++
		s.res.Props++
		falsified := l.Neg()
		ws := s.watches[falsified]
		kept := ws[:0]
	visit:
		for i := 0; i < len(ws); i++ {
			cr := ws[i]
			c := cr + 1 // the first watched literal
			if arena[c] == falsified {
				arena[c], arena[c+1] = arena[c+1], falsified
			}
			first := arena[c]
			if vals[first] == 1 {
				kept = append(kept, cr)
				continue
			}
			end := c + int32(arena[cr]>>hdrShift)
			for k := c + 2; k < end; k++ {
				if q := arena[k]; vals[q] != 0 {
					arena[c+1], arena[k] = q, falsified
					s.watches[q] = append(s.watches[q], cr)
					continue visit
				}
			}
			kept = append(kept, cr)
			if !s.enqueue(first, cr) {
				kept = append(kept, ws[i+1:]...)
				s.watches[falsified] = kept
				return cr
			}
		}
		s.watches[falsified] = kept
	}
	return -1
}

// bump raises v's activity by the increment. A first bump moves v from
// the rank tier to the heap tier (order.go); a rescale multiplies every
// activity by 1e-100, which keeps the never-bumped variables in rank
// order, and re-heapifies the bumped ones.
func (s *solver) bump(v int) {
	s.activity[v] += s.actInc
	if i := s.heapIdx[v]; i >= 0 {
		s.heap[i].act = s.activity[v]
		s.siftUp(int(i))
	} else if i == unbumped {
		s.promote(v)
	}
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.actInc *= 1e-100
		s.heapify()
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
		h := s.arena[reason]
		stable = stable && h&flagStable != 0
		cl := s.arena[reason+1 : reason+1+int32(h>>hdrShift)]
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
		s.release(v)
	}
	s.trail = s.trail[:lo]
	s.trailLo = lo
	s.limits = s.limits[:lvl]
}

// addLearned appends a learned clause of two or more literals, flagged
// with analyze's stability verdict, and watches it.
func (s *solver) addLearned(lits []Lit) int32 {
	flags := flagLearned
	if s.analyzeStable {
		flags |= flagStable
	}
	cr := int32(len(s.arena))
	s.arena = appendClause(s.arena, lits, flags)
	s.watch(cr)
	s.res.Learned++
	return cr
}

func (s *solver) run(lim Limits) Result {
	res := s.search(lim)
	if lim.ExportStable && res.Status != Canceled {
		res.StableLearned = s.exportStable()
	}
	return res
}

// exportStable copies the stable learned clauses out of the arena, in
// clause order, followed by the stable learned units. The copies share
// one backing array; each is capped at its own length.
func (s *solver) exportStable() [][]Lit {
	const stable = flagLearned | flagStable
	a := s.arena
	n, size := len(s.stableUnits), len(s.stableUnits)
	for cr := 0; cr < len(a); cr += 1 + int(a[cr]>>hdrShift) {
		if a[cr]&stable == stable {
			n++
			size += int(a[cr] >> hdrShift)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][]Lit, 0, n)
	back := make([]Lit, 0, size)
	keep := func(lits ...Lit) {
		lo := len(back)
		back = append(back, lits...)
		out = append(out, back[lo:len(back):len(back)])
	}
	for cr := 0; cr < len(a); cr += 1 + int(a[cr]>>hdrShift) {
		if a[cr]&stable == stable {
			keep(a[cr+1 : cr+1+int(a[cr]>>hdrShift)]...)
		}
	}
	for _, l := range s.stableUnits {
		keep(l)
	}
	return out
}

func (s *solver) search(lim Limits) Result {
	// An already-canceled context never starts the search: small formulas
	// can otherwise finish before the branch loop's first poll comes due.
	if lim.Ctx != nil && lim.Ctx.Err() != nil {
		s.res.Status = Canceled
		return s.res
	}
	// Level-0 units.
	for cr := int32(0); cr < int32(len(s.arena)); {
		h := s.arena[cr]
		k := int32(h >> hdrShift)
		u := k
		if h&flagGuarded != 0 {
			// The trailing guard literal is already false under the level-0
			// assumption, so the core alone decides unit-ness.
			u--
		}
		if u == 1 && !s.enqueue(s.arena[cr+1], cr) {
			s.res.Status = Unsat
			return s.res
		}
		cr += 1 + k
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
