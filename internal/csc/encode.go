// Package csc encodes the complete-state-coding constraint satisfaction
// problem as boolean satisfiability (the paper's Section 2.1 SAT-CSC
// model) and provides the direct whole-graph solver that serves as the
// Vanbekbergen et al. baseline ("no decomposition" in Table 1).
package csc

import (
	"fmt"

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

// Options tunes the encoding.
type Options struct {
	// ExpandXor generates the paper-style direct CNF expansion of the
	// "codes must differ" constraints (2^m clauses per conflicting pair)
	// instead of the default Tseitin encoding with auxiliary difference
	// variables. Used for clause-growth experiments.
	ExpandXor bool
}

// Encoding is a SAT-CSC instance for inserting m state signals into a
// state graph.
type Encoding struct {
	F *sat.Formula
	G *sg.Graph
	M int

	lay layout
}

// layout places the state variables of a SAT-CSC formula over n states:
// column k's (a, b) bit pair for state s is variables a(s, k) = lo[k]+2s
// and b(s, k) = a(s, k)+1. Encode's column-major layout has lo[k] = 2kn;
// the incremental ChainSolver's has lo[k] at the first variable it
// allocated for column k.
type layout struct {
	n  int
	lo []int
}

func (l layout) a(s, k int) int { return l.lo[k] + 2*s }
func (l layout) b(s, k int) int { return l.lo[k] + 2*s + 1 }

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

// Encode builds the SAT-CSC formula for graph g with m new state signals
// and the given conflict analysis. Pairs with A == B (a merged class
// implying both values of the target signal) cannot be separated by any
// assignment; Encode reports them as an error.
func Encode(g *sg.Graph, conf *sg.Conflicts, m int, opt Options) (*Encoding, error) {
	if m <= 0 {
		return nil, fmt.Errorf("csc: need at least one state signal")
	}
	for _, p := range conf.CSC {
		if p.A == p.B {
			return nil, fmt.Errorf("csc: state %d conflicts with itself (merged class implies both values); enlarge the input set", p.A)
		}
	}
	e := &Encoding{F: sat.NewFormula(), G: g, M: m}
	n := len(g.States)
	// Column-major variable layout: column k's (a,b) pairs for every
	// state precede column k+1's, so a(s, k) = 2(kn+s) and b(s, k) is
	// its successor. The formulas of a widening chain thereby share a
	// variable prefix — formula m's state variables are exactly the
	// first 2nm variables of formula m+1 — which is what lets the
	// incremental solver (ChainSolver) grow columns in place and keeps
	// warm-chain clause instantiation layout-stable along the chain.
	e.lay = layout{n: n, lo: make([]int, m)}
	for k := 0; k < m; k++ {
		e.lay.lo[k] = 2 * k * n
		for s := 0; s < n; s++ {
			a := e.F.NewVar()
			e.F.NewVar()
			// Prefer stable phases: every needlessly excited state
			// multiplies the expanded state graph.
			e.F.Prefer(a, false)
		}
	}

	// Consistency + semi-modularity along every edge, for every signal:
	// block the eight incompatible phase pairs. Emission is grouped by
	// column for the same reason the variables are: column k's clause
	// block is identical in every formula of the chain that has column k.
	for k := 0; k < m; k++ {
		for _, ed := range g.Edges {
			blocked := blockedOutputEdge
			if g.InputEdge(ed) {
				blocked = blockedInputEdge
			}
			for _, bp := range blocked {
				pa, pb := phaseBits(bp[0])
				qa, qb := phaseBits(bp[1])
				e.F.Add(
					clauseLit(e.lay.a(ed.From, k), pa), clauseLit(e.lay.b(ed.From, k), pb),
					clauseLit(e.lay.a(ed.To, k), qa), clauseLit(e.lay.b(ed.To, k), qb),
				)
			}
		}
	}
	// The edge-compatibility clauses above are per-column and recur in
	// every formula of a widening/insertion chain on this graph, so
	// learned clauses derived exclusively from them stay valid along
	// the chain (see WarmChain). The pair and symmetry clauses below do
	// not: they change with m and the conflict set.
	e.F.MarkStablePrefix()

	if opt.ExpandXor {
		// Paper-parity mode: no auxiliary variables at all, so no
		// symmetry breaking either (it is an encoding-size experiment,
		// not a solving path).
		e.encodePairsExpanded(conf)
	} else {
		em := emitter{sink: formulaSink{e.F}, lay: e.lay}
		em.pairsTseitin(m, conf)
		em.symmetry(m)
	}
	return e, nil
}

// encSink receives the per-problem (pair separation and symmetry)
// constraints. Two implementations share the emission code: formulaSink
// appends to a one-shot formula, and the incremental ChainSolver routes
// the same clauses into the solver's current assumption group.
type encSink interface {
	newVar() int
	// add adds one clause. lits is the emitter's scratch: the sink
	// copies what it keeps.
	add(lits []sat.Lit)
}

type formulaSink struct{ f *sat.Formula }

func (s formulaSink) newVar() int        { return s.f.NewVar() }
func (s formulaSink) add(lits []sat.Lit) { s.f.Add(lits...) }

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

// encodePairsExpanded is the paper-style direct CNF expansion with no
// auxiliary variables: the disjunction over k of the stable-separation
// conjunctions distributes into 4^m clauses per pair (the paper's
// N_csc·c^m and N_usc·c^m clause-count terms).
func (e *Encoding) encodePairsExpanded(conf *sg.Conflicts) {
	// CNF(sep_k) has four clauses: (¬a_A), (¬a_B), (b_A ∨ b_B),
	// (¬b_A ∨ ¬b_B). CNF(∨_k sep_k) picks one of them per k.
	clauseOf := func(p sg.Pair, k, choice int) []sat.Lit {
		ai, aj := e.lay.a(p.A, k), e.lay.a(p.B, k)
		bi, bj := e.lay.b(p.A, k), e.lay.b(p.B, k)
		switch choice {
		case 0:
			return []sat.Lit{sat.NegLit(ai)}
		case 1:
			return []sat.Lit{sat.NegLit(aj)}
		case 2:
			return []sat.Lit{sat.PosLit(bi), sat.PosLit(bj)}
		default:
			return []sat.Lit{sat.NegLit(bi), sat.NegLit(bj)}
		}
	}
	total := 1
	for k := 0; k < e.M; k++ {
		total *= 4
	}
	build := func(p sg.Pair, idx int) []sat.Lit {
		var lits []sat.Lit
		for k := 0; k < e.M; k++ {
			lits = append(lits, clauseOf(p, k, idx%4)...)
			idx /= 4
		}
		return lits
	}
	for _, p := range conf.CSC {
		for idx := 0; idx < total; idx++ {
			e.F.Add(build(p, idx)...)
		}
	}
	for _, p := range conf.USC {
		for idx := 0; idx < total; idx++ {
			base := build(p, idx)
			for k := 0; k < e.M; k++ {
				for _, bp := range uscBlockedPairs {
					pa, pb := phaseBits(bp[0])
					qa, qb := phaseBits(bp[1])
					e.F.Add(append(append([]sat.Lit(nil), base...),
						clauseLit(e.lay.a(p.A, k), pa), clauseLit(e.lay.b(p.A, k), pb),
						clauseLit(e.lay.a(p.B, k), qa), clauseLit(e.lay.b(p.B, k), qb))...)
				}
			}
		}
	}
}

// DecodePhases extracts the per-signal phase columns from a model.
func (e *Encoding) DecodePhases(model []bool) [][]sg.Phase { return e.lay.decode(model, e.M) }
