package csc

import (
	"fmt"
	"testing"

	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// Encoding is a one-shot SAT-CSC formula for inserting m state signals
// into a state graph: the reference the ChainSolver is checked against.
type Encoding struct {
	F *sat.Formula
	G *sg.Graph
	M int

	lay layout
}

// formulaSink appends the emitter's clauses to a one-shot formula.
type formulaSink struct{ f *sat.Formula }

func (s formulaSink) newVar() int        { return s.f.NewVar() }
func (s formulaSink) add(lits []sat.Lit) { s.f.Add(lits...) }

// Encode builds the SAT-CSC formula for graph g with m new state signals
// and the given conflict analysis, with the paper-style expansion of
// the pair constraints when expandXor is set. Pairs with A == B (a
// merged class implying both values of the target signal) cannot be
// separated by any assignment; Encode reports them as an error.
//
// The variable layout is column-major: column k's (a,b) pairs for every
// state precede column k+1's, so a(s, k) = 2(kn+s) and b(s, k) is its
// successor, and formula m's state variables are the first 2nm
// variables of formula m+1. The edge-compatibility clauses, grouped by
// column, form the stable prefix; the pair (and symmetry) clauses
// follow.
func Encode(g *sg.Graph, conf *sg.Conflicts, m int, expandXor bool) (*Encoding, error) {
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
	// block the eight incompatible phase pairs.
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
	e.F.MarkStablePrefix()

	em := emitter{sink: formulaSink{e.F}, lay: e.lay}
	em.pairs(m, conf, expandXor)
	return e, nil
}

// DecodePhases extracts the per-signal phase columns from a model.
func (e *Encoding) DecodePhases(model []bool) [][]sg.Phase { return e.lay.decode(model, e.M) }

// CheckedChainSolver returns a chain solver that compares every step it
// solves with Encode's formula for the same graph, conflicts, m and
// encoding, solved from scratch by sat.SolveWarm with the same budget
// and warm-chain seeds. It reports a mismatch in the formula size, the
// verdict, the five search counters, the stable export or the tightened
// model on tb, and counts each step's verdict in verdicts. It also
// checks the warm chain the step was seeded from, which works in the
// chain solver's layout: the seeds are the chain's clauses at every
// column, each seed is implied by one column's edge clauses, and the
// step's exports normalize alike in both layouts.
func CheckedChainSolver(tb testing.TB, verdicts map[sat.Status]int) *ChainSolver {
	c := NewChainSolver()
	c.check = stepChecker(tb, verdicts)
	return c
}

// stepChecker returns CheckedChainSolver's check hook. proved records,
// per graph, the seed clauses already proved sound.
func stepChecker(tb testing.TB, verdicts map[sat.Status]int) func(chainStep) {
	proved := map[*sg.Graph]map[string]bool{}
	return func(st chainStep) {
		tb.Helper()
		verdicts[st.r.Status]++
		if proved[st.g] == nil {
			proved[st.g] = map[string]bool{}
		}
		if err := st.matchesEncode(proved[st.g]); err != nil {
			tb.Errorf("%s: m=%d, %d+%d pairs, expandXor=%v: %v", st.g.Name, st.m, len(st.conf.CSC), len(st.conf.USC), st.opt.ExpandXor, err)
		}
	}
}

// matchesEncode compares the step with its reference solve, mapping the
// step's warm-chain seeds and stable exports from the chain solver's
// variables to Encode's.
func (st chainStep) matchesEncode(proved map[string]bool) error {
	enc, err := Encode(st.g, st.conf, st.m, st.opt.ExpandXor)
	if err != nil {
		return err
	}
	var seeds *sat.Warm
	if st.seeds != nil {
		cls, err := st.toEncode(enc, st.seeds.Clauses)
		if err != nil {
			return fmt.Errorf("warm seeds: %w", err)
		}
		if err := st.seedsMatchChain(enc, cls); err != nil {
			return err
		}
		if err := seedsImplied(st.g, enc.lay, cls, proved); err != nil {
			return err
		}
		seeds = &sat.Warm{Clauses: cls}
	}
	exported, err := st.toEncode(enc, st.r.StableLearned)
	if err != nil {
		return fmt.Errorf("stable export: %w", err)
	}
	r := sat.SolveWarm(enc.F, sat.Limits{MaxBacktracks: st.opt.MaxBacktracks, ExportStable: st.opt.Chain != nil}, seeds)
	want := FormulaStats{Signals: st.m, Vars: enc.F.NumVars, Clauses: enc.F.NumClauses(),
		Literals: enc.F.NumLiterals(), Status: r.Status, Engine: "dpll"}
	got := st.stats
	got.SolveTime, got.SearchTime = 0, 0
	if got != want {
		return fmt.Errorf("chain solver formula %+v, Encode %+v", got, want)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"decisions", st.r.Decisions, r.Decisions}, {"conflicts", st.r.Backtracks, r.Backtracks},
		{"propagations", st.r.Props, r.Props}, {"learned", st.r.Learned, r.Learned},
		{"restarts", st.r.Restarts, r.Restarts},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: chain solver %d, Encode %d", c.name, c.got, c.want)
		}
	}
	if g, w := fmt.Sprint(exported), fmt.Sprint(r.StableLearned); g != w {
		return fmt.Errorf("stable export: chain solver %s, Encode %s", g, w)
	}
	var chain WarmChain
	if g, w := fmt.Sprint(chain.normalize(st.lay, st.m, st.r.StableLearned)), fmt.Sprint(chain.normalize(enc.lay, st.m, r.StableLearned)); g != w {
		return fmt.Errorf("normalized export: chain solver %s, Encode %s", g, w)
	}
	var wantCols [][]sg.Phase
	if r.Status == sat.Sat {
		wantCols = enc.DecodePhases(r.Model)
		Tighten(st.g, st.conf, wantCols)
	}
	if g, w := fmt.Sprint(st.cols), fmt.Sprint(wantCols); g != w {
		return fmt.Errorf("chain solver columns %s, Encode %s", g, w)
	}
	return nil
}

// toEncode maps clauses over the step's state variables in the chain
// solver's layout to the same variables of Encode's formula. A literal
// on any other solver variable (an auxiliary or guard of the step's
// assumption group) has no counterpart and is an error: seeds and
// stable exports constrain state variables only.
func (st chainStep) toEncode(enc *Encoding, cls [][]sat.Lit) ([][]sat.Lit, error) {
	var out [][]sat.Lit
	for _, cl := range cls {
		mapped := make([]sat.Lit, len(cl))
		for i, l := range cl {
			k := st.lay.column(l.Var(), st.m)
			if k < 0 {
				return nil, fmt.Errorf("clause %v: variable %d is no state variable of the step's %d columns", cl, l.Var(), st.m)
			}
			v := enc.lay.lo[k] + l.Var() - st.lay.lo[k]
			mapped[i] = sat.Lit(2*v) | (l & 1)
		}
		out = append(out, mapped)
	}
	return out, nil
}

// seedsMatchChain checks the step's seeds, mapped to Encode's variables,
// against the chain clauses they came from, recovered by normalizing
// the seeds: each of those clauses, its variable 2s+bit placed at
// 2kn+2s+bit in every column k in turn, must give the mapped seeds
// clause for clause.
func (st chainStep) seedsMatchChain(enc *Encoding, mapped [][]sat.Lit) error {
	var chain WarmChain
	var want [][]sat.Lit
	for _, cl := range chain.normalize(st.lay, st.m, st.seeds.Clauses) {
		for k := 0; k < st.m; k++ {
			inst := make([]sat.Lit, len(cl))
			for i, l := range cl {
				inst[i] = l + sat.Lit(2*2*k*enc.lay.n)
			}
			want = append(want, inst)
		}
	}
	if g, w := fmt.Sprint(mapped), fmt.Sprint(want); g != w {
		return fmt.Errorf("warm seeds: chain solver %s, the chain's clauses at every column %s", g, w)
	}
	return nil
}

// seedsImplied proves, by refutation, that each seed clause (over
// Encode's variables, one column each) follows from one column's
// edge-compatibility clauses on g — what makes it sound to seed any
// formula on g with it. proved caches the clauses already proved.
func seedsImplied(g *sg.Graph, lay layout, seeds [][]sat.Lit, proved map[string]bool) error {
	var one *Encoding
	for _, cl := range seeds {
		k := lay.column(cl[0].Var(), len(lay.lo))
		col0 := make([]sat.Lit, len(cl))
		for i, l := range cl {
			if k < 0 || lay.column(l.Var(), len(lay.lo)) != k {
				return fmt.Errorf("warm seed %v is not a clause of one column", cl)
			}
			col0[i] = l - sat.Lit(2*lay.lo[k])
		}
		key := fmt.Sprint(col0)
		if proved[key] {
			continue
		}
		if one == nil {
			var err error
			if one, err = Encode(g, &sg.Conflicts{}, 1, false); err != nil {
				return err
			}
		}
		ref := sat.NewFormula()
		for v := 0; v < one.F.NumVars; v++ {
			ref.NewVar()
		}
		for _, pc := range one.F.Clauses[:one.F.StablePrefix()] {
			ref.Add(pc...)
		}
		for _, l := range col0 {
			ref.Add(l.Neg())
		}
		if r := sat.Solve(ref, sat.Limits{}); r.Status != sat.Unsat {
			return fmt.Errorf("warm seed %v is not implied by the edge clauses (%v)", cl, r.Status)
		}
		proved[key] = true
	}
	return nil
}
