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
// successor. Formula m's state variables are thereby the first 2nm
// variables of formula m+1, the space warm-chain seeds and exports are
// stated in. The edge-compatibility clauses, grouped by column, form
// the stable prefix; the pair (and symmetry) clauses follow.
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
// model on tb, and counts each step's verdict in verdicts.
func CheckedChainSolver(tb testing.TB, verdicts map[sat.Status]int) *ChainSolver {
	c := NewChainSolver()
	c.check = stepChecker(tb, verdicts)
	return c
}

// stepChecker returns CheckedChainSolver's check hook.
func stepChecker(tb testing.TB, verdicts map[sat.Status]int) func(chainStep) {
	return func(st chainStep) {
		tb.Helper()
		verdicts[st.r.Status]++
		if err := st.matchesEncode(); err != nil {
			tb.Errorf("%s: m=%d, %d+%d pairs, expandXor=%v: %v", st.g.Name, st.m, len(st.conf.CSC), len(st.conf.USC), st.opt.ExpandXor, err)
		}
	}
}

// matchesEncode compares the step with its reference solve.
func (st chainStep) matchesEncode() error {
	enc, err := Encode(st.g, st.conf, st.m, st.opt.ExpandXor)
	if err != nil {
		return err
	}
	r := sat.SolveWarm(enc.F, sat.Limits{MaxBacktracks: st.opt.MaxBacktracks, ExportStable: st.opt.Chain != nil}, st.seeds)
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
	if g, w := fmt.Sprint(st.r.StableLearned), fmt.Sprint(r.StableLearned); g != w {
		return fmt.Errorf("stable export: chain solver %s, Encode %s", g, w)
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
