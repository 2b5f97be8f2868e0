// Package csc encodes the complete-state-coding constraint satisfaction
// problem as boolean satisfiability (the paper's Section 2.1 SAT-CSC
// model) and provides the direct whole-graph solver that serves as the
// Vanbekbergen et al. baseline ("no decomposition" in Table 1).
package csc

import (
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// Phase bit encoding (the paper's footnote 2): each 4-valued state
// variable n_{i,k} becomes two binary variables (a,b) with
// 00→0, 01→1, 10→Up, 11→Down. The level a state signal contributes to
// the state code equals the b bit (Up keeps level 0, Down keeps level 1).
func phaseBits(p sg.Phase) (a, b bool) {
	switch p {
	case sg.P0:
		return false, false
	case sg.P1:
		return false, true
	case sg.PUp:
		return true, false
	default:
		return true, true
	}
}

func bitsPhase(a, b bool) sg.Phase {
	switch {
	case !a && !b:
		return sg.P0
	case !a && b:
		return sg.P1
	case a && !b:
		return sg.PUp
	default:
		return sg.PDown
	}
}

// layout places the state variables of a SAT-CSC formula over n states:
// column k's (a, b) bit pair for state s is variables a(s, k) = lo[k]+2s
// and b(s, k) = a(s, k)+1. The ChainSolver's layout, the one warm-chain
// seeds and exports are stated in, has lo[k] at the first variable it
// allocated for column k; the package tests' one-shot reference formula
// is column-major, with lo[k] = 2kn.
type layout struct {
	n  int
	lo []int
}

func (l layout) a(s, k int) int { return l.lo[k] + 2*s }
func (l layout) b(s, k int) int { return l.lo[k] + 2*s + 1 }

// column returns the column, among the first m, whose state variables
// hold variable v, or -1 when none does.
func (l layout) column(v, m int) int {
	for k := 0; k < m; k++ {
		if v >= l.lo[k] && v < l.lo[k]+2*l.n {
			return k
		}
	}
	return -1
}

// decode extracts the phase columns of the first m columns from a model.
func (l layout) decode(model []bool, m int) [][]sg.Phase {
	out := make([][]sg.Phase, m)
	for k := 0; k < m; k++ {
		col := make([]sg.Phase, l.n)
		for s := range col {
			col[s] = bitsPhase(model[l.a(s, k)], model[l.b(s, k)])
		}
		out[k] = col
	}
	return out
}

// clauseLit returns the clause literal that is false exactly when
// variable v takes value val.
func clauseLit(v int, val bool) sat.Lit {
	if val {
		return sat.NegLit(v)
	}
	return sat.PosLit(v)
}

// blockedPairsFor lists the (predecessor, successor) phase pairs
// excluded by the consistency + semi-modularity relation, including the
// input-properness restriction on environment-driven edges (see
// sg.EdgeCompatibleIO).
func blockedPairsFor(inputEdge bool) [][2]sg.Phase {
	var out [][2]sg.Phase
	for _, p := range []sg.Phase{sg.P0, sg.P1, sg.PUp, sg.PDown} {
		for _, q := range []sg.Phase{sg.P0, sg.P1, sg.PUp, sg.PDown} {
			if !sg.EdgeCompatibleIO(p, q, inputEdge) {
				out = append(out, [2]sg.Phase{p, q})
			}
		}
	}
	return out
}

var (
	blockedOutputEdge = blockedPairsFor(false)
	blockedInputEdge  = blockedPairsFor(true)
)

// encSink receives the per-problem (pair separation and symmetry)
// clauses of a formula: the ChainSolver routes them into its current
// assumption group, and the package tests' reference encoding appends
// them to a one-shot formula.
type encSink interface {
	newVar() int
	// add adds one clause. lits is the emitter's scratch: the sink
	// copies what it keeps.
	add(lits []sat.Lit)
}

// emitter emits the per-problem clauses of a formula over the state
// variables of lay through sink. Every clause is built in buffers the
// emitter keeps, so an owner that reuses the emitter emits without
// allocating.
type emitter struct {
	sink encSink
	lay  layout
	ds   []sat.Lit // the current pair's separation literals
	cl   []sat.Lit // the clause being built
}

// add emits one clause.
func (e *emitter) add(lits ...sat.Lit) {
	e.cl = append(e.cl[:0], lits...)
	e.sink.add(e.cl)
}

// pairs emits the constraints of conf for m signals: the Tseitin
// separation encoding with symmetry breaking, or with expandXor the
// paper-style expansion. The expansion has no auxiliary variables and
// so no symmetry clauses either: it is an encoding-size experiment, not
// a solving path.
func (e *emitter) pairs(m int, conf *sg.Conflicts, expandXor bool) {
	if expandXor {
		e.pairsExpanded(m, conf)
		return
	}
	e.pairsTseitin(m, conf)
	e.symmetry(m)
}

// symmetry adds lexicographic ordering between adjacent signal columns.
// The m inserted signals are fully interchangeable in every constraint,
// so without this the solver explores (and on UNSAT instances must
// refute) all m! permutations of each assignment — joint m ≥ 4 UNSAT
// proofs become intractable. The standard prefix-equality chain costs 4
// clauses per state bit per adjacent pair. A column's bits are taken in
// variable order: a(0, k), b(0, k), a(1, k), ...
func (e *emitter) symmetry(m int) {
	bits := 2 * e.lay.n
	for k := 0; k+1 < m; k++ {
		xlo, ylo := e.lay.lo[k], e.lay.lo[k+1]
		prevEq := -1 // -1 means "true"
		for i := 0; i < bits; i++ {
			x, y := xlo+i, ylo+i
			if prevEq < 0 {
				e.add(sat.NegLit(x), sat.PosLit(y)) // x ≤ y
			} else {
				e.add(sat.NegLit(prevEq), sat.NegLit(x), sat.PosLit(y))
			}
			if i == bits-1 {
				break
			}
			eq := e.sink.newVar()
			// eq ← prevEq ∧ (x ↔ y): both directions so the chain
			// propagates and stays consistent.
			if prevEq < 0 {
				e.add(sat.PosLit(eq), sat.PosLit(x), sat.PosLit(y))
				e.add(sat.PosLit(eq), sat.NegLit(x), sat.NegLit(y))
			} else {
				e.add(sat.PosLit(eq), sat.NegLit(prevEq), sat.PosLit(x), sat.PosLit(y))
				e.add(sat.PosLit(eq), sat.NegLit(prevEq), sat.NegLit(x), sat.NegLit(y))
				e.add(sat.NegLit(eq), sat.PosLit(prevEq))
			}
			e.add(sat.NegLit(eq), sat.PosLit(x), sat.NegLit(y))
			e.add(sat.NegLit(eq), sat.NegLit(x), sat.PosLit(y))
			prevEq = eq
		}
	}
}

// Separation semantics. A state signal with phase Up or Down spans BOTH
// binary levels once its transition is inserted (the state splits into a
// before- and an after-firing half during expansion). Two conflicting
// states are therefore reliably distinguished only by a signal that is
// STABLE at complementary levels in the two states: (0,1) or (1,0).
//
// Non-conflicting equal-code pairs (USC) need no separation, but the
// inserted signal's own behaviour must then look identical from the two
// states wherever their expanded codes overlap: one state must not enable
// n_k+ at a level where the other holds that level stably. The
// phase pairs that violate this are
//
//	(0,Up), (Up,0), (1,Down), (Down,1), (Up,Down), (Down,Up)
//
// — e.g. (Up,0) overlap at level 0 has one state firing n_k+ and the
// other not, a fresh CSC conflict on n_k itself. A USC pair must either
// be separated like a CSC pair or avoid these six pairs for every k.

// uscBlockedPairs are the phase pairs disallowed on unseparated
// equal-code pairs.
var uscBlockedPairs = [][2]sg.Phase{
	{sg.P0, sg.PUp}, {sg.PUp, sg.P0},
	{sg.P1, sg.PDown}, {sg.PDown, sg.P1},
	{sg.PUp, sg.PDown}, {sg.PDown, sg.PUp},
}

// pairsTseitin introduces, per pair and signal, an auxiliary variable
// d_k → (signal k stably separates the pair):
// d_k → ¬a_A ∧ ¬a_B ∧ (b_A ⊕ b_B). CSC pairs assert ∨_k d_k; USC pairs
// assert, for every k and blocked phase pair, (∨_k d_k) ∨ ¬blocked.
func (e *emitter) pairsTseitin(m int, conf *sg.Conflicts) {
	for _, p := range conf.CSC {
		e.sepVars(p, m)
		e.sink.add(e.ds)
	}
	for _, p := range conf.USC {
		e.sepVars(p, m)
		e.unseparated(p, m)
	}
}

// pairsExpanded is the paper-style direct CNF expansion with no
// auxiliary variables: the disjunction over k of the stable-separation
// conjunctions distributes into 4^m clauses per pair (the paper's
// N_csc·c^m and N_usc·c^m clause-count terms).
func (e *emitter) pairsExpanded(m int, conf *sg.Conflicts) {
	total := 1
	for k := 0; k < m; k++ {
		total *= 4
	}
	for _, p := range conf.CSC {
		for idx := 0; idx < total; idx++ {
			e.sepChoice(p, m, idx)
			e.sink.add(e.ds)
		}
	}
	for _, p := range conf.USC {
		for idx := 0; idx < total; idx++ {
			e.sepChoice(p, m, idx)
			e.unseparated(p, m)
		}
	}
}

// unseparated emits, for every signal k and phase pair that USC pair p
// must avoid when unseparated, the clause e.ds ∨ ¬(p takes that pair).
func (e *emitter) unseparated(p sg.Pair, m int) {
	for k := 0; k < m; k++ {
		for _, bp := range uscBlockedPairs {
			pa, pb := phaseBits(bp[0])
			qa, qb := phaseBits(bp[1])
			e.cl = append(append(e.cl[:0], e.ds...),
				clauseLit(e.lay.a(p.A, k), pa), clauseLit(e.lay.b(p.A, k), pb),
				clauseLit(e.lay.a(p.B, k), qa), clauseLit(e.lay.b(p.B, k), qb))
			e.sink.add(e.cl)
		}
	}
}

// sepVars allocates pair p's separation variables d_0..d_{m-1}, emits
// their defining clauses and leaves their positive literals in e.ds.
func (e *emitter) sepVars(p sg.Pair, m int) {
	e.ds = e.ds[:0]
	for k := 0; k < m; k++ {
		d := e.sink.newVar()
		e.ds = append(e.ds, sat.PosLit(d))
		ai, aj := e.lay.a(p.A, k), e.lay.a(p.B, k)
		bi, bj := e.lay.b(p.A, k), e.lay.b(p.B, k)
		e.add(sat.NegLit(d), sat.NegLit(ai))
		e.add(sat.NegLit(d), sat.NegLit(aj))
		e.add(sat.NegLit(d), sat.PosLit(bi), sat.PosLit(bj))
		e.add(sat.NegLit(d), sat.NegLit(bi), sat.NegLit(bj))
	}
}

// sepChoice leaves in e.ds clause idx of CNF(∨_k sep_k), which picks
// for each signal k, by the k-th base-4 digit of idx, one of the four
// clauses of CNF(sep_k): (¬a_A), (¬a_B), (b_A ∨ b_B) or (¬b_A ∨ ¬b_B).
func (e *emitter) sepChoice(p sg.Pair, m, idx int) {
	e.ds = e.ds[:0]
	for k := 0; k < m; k++ {
		switch idx % 4 {
		case 0:
			e.ds = append(e.ds, sat.NegLit(e.lay.a(p.A, k)))
		case 1:
			e.ds = append(e.ds, sat.NegLit(e.lay.a(p.B, k)))
		case 2:
			e.ds = append(e.ds, sat.PosLit(e.lay.b(p.A, k)), sat.PosLit(e.lay.b(p.B, k)))
		default:
			e.ds = append(e.ds, sat.NegLit(e.lay.b(p.A, k)), sat.NegLit(e.lay.b(p.B, k)))
		}
		idx /= 4
	}
}
