package csc

import (
	"context"
	"fmt"
	"time"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/synerr"
)

// ChainSolver solves the DPLL attempts of one solve chain on a single
// persistent assumption-based incremental solver (sat.Incremental)
// instead of re-encoding each formula from scratch. The column-major
// variable layout makes chain formulas share a literal prefix: the
// edge-compatibility clauses of column k are identical in every formula
// that has column k, so they are encoded once as permanent clauses and
// only the per-attempt pair/symmetry constraints are re-emitted, into a
// retire-and-replace assumption group. Columns beyond the current
// attempt's m are deactivated rather than discarded, so a chain can
// shrink m (the greedy insertion loop's m=1 attempts after a joint m=2
// try) and grow it again for free.
//
// The incremental path is exact, not approximate: SolveStep's result is
// bit-identical to the re-encode path's (verdict, model, counters,
// stable exports), which the parity tests pin. Like WarmChain, a
// ChainSolver is bound to one graph structure and rebinds (resetting
// the solver) when the chain moves to a structurally different graph;
// it is not safe for concurrent use — chains are per-module and modules
// solve sequentially.
type ChainSolver struct {
	fp     string
	inc    *sat.Incremental
	n      int
	cols   int // columns encoded so far
	aVar   [][]int
	bVar   [][]int
	colLo  []int  // first solver variable of column k's 2n-variable block
	colOff []bool // column k currently deactivated
	colCl  []int  // permanent clauses through column k (cumulative)
	colLit []int  // permanent literals through column k (cumulative)

	// Variable translation between the solver's space and the space of
	// the equivalent one-shot Encode formula, for warm-chain seeds in
	// and stable exports out. Auxiliary and guard variables map to -1.
	incToFresh []int32
	freshToInc []int32

	// Fresh-formula-equivalent sizes of the current assumption group.
	grpAux, grpCl, grpLit int

	seedBuf  [][]sat.Lit
	seedLits []sat.Lit
}

// NewChainSolver returns an empty, unbound chain solver.
func NewChainSolver() *ChainSolver { return &ChainSolver{} }

// rebind attaches the solver to g's structure, resetting it when the
// chain moves to a structurally different graph (same fingerprint as
// WarmChain.Rebind: appending phase columns does not invalidate it).
func (c *ChainSolver) rebind(g *sg.Graph) {
	fp := graphFingerprint(g)
	if c.fp == fp {
		return
	}
	c.fp = fp
	c.inc = sat.NewIncremental()
	c.n = len(g.States)
	c.cols = 0
	c.aVar = make([][]int, c.n)
	c.bVar = make([][]int, c.n)
	c.colLo = c.colLo[:0]
	c.colOff = c.colOff[:0]
	c.colCl = c.colCl[:0]
	c.colLit = c.colLit[:0]
	c.incToFresh = c.incToFresh[:0]
	c.freshToInc = c.freshToInc[:0]
}

// padTranslation extends incToFresh with "no fresh counterpart" entries
// for solver variables allocated since the last column block (group
// auxiliaries and guards).
func (c *ChainSolver) padTranslation() {
	for len(c.incToFresh) < c.inc.NumVars() {
		c.incToFresh = append(c.incToFresh, -1)
	}
}

// clauseLit is Encode's value-falsifying literal helper.
func clauseLit(v int, val bool) sat.Lit {
	if val {
		return sat.NegLit(v)
	}
	return sat.PosLit(v)
}

// ensureColumns encodes columns c.cols..m-1: their state variables
// (with Encode's phase preference) and their permanent edge-compatibility
// clause blocks, in exactly Encode's emission order.
func (c *ChainSolver) ensureColumns(g *sg.Graph, m int) {
	for k := c.cols; k < m; k++ {
		c.padTranslation()
		c.colLo = append(c.colLo, c.inc.NumVars())
		c.colOff = append(c.colOff, false)
		for s := 0; s < c.n; s++ {
			av := c.inc.NewVar()
			bv := c.inc.NewVar()
			c.inc.Prefer(av, false)
			c.aVar[s] = append(c.aVar[s], av)
			c.bVar[s] = append(c.bVar[s], bv)
			fa := int32(2 * (k*c.n + s))
			c.incToFresh = append(c.incToFresh, fa, fa+1)
			c.freshToInc = append(c.freshToInc, int32(av), int32(bv))
		}
		nCl, nLit := 0, 0
		for _, ed := range g.Edges {
			blocked := blockedOutputEdge
			if g.InputEdge(ed) {
				blocked = blockedInputEdge
			}
			for _, bp := range blocked {
				pa, pb := phaseBits(bp[0])
				qa, qb := phaseBits(bp[1])
				ln, added := c.inc.AddPermanent(
					clauseLit(c.aVar[ed.From][k], pa), clauseLit(c.bVar[ed.From][k], pb),
					clauseLit(c.aVar[ed.To][k], qa), clauseLit(c.bVar[ed.To][k], qb),
				)
				if added {
					nCl++
					nLit += ln
				}
			}
		}
		prevCl, prevLit := 0, 0
		if k > 0 {
			prevCl, prevLit = c.colCl[k-1], c.colLit[k-1]
		}
		c.colCl = append(c.colCl, prevCl+nCl)
		c.colLit = append(c.colLit, prevLit+nLit)
		c.cols++
	}
}

// setActive (de)activates column variable blocks so exactly the first m
// columns take part in the next step's search.
func (c *ChainSolver) setActive(m int) {
	for k := 0; k < c.cols; k++ {
		off := k >= m
		if c.colOff[k] == off {
			continue
		}
		c.colOff[k] = off
		lo := c.colLo[k]
		for v := lo; v < lo+2*c.n; v++ {
			c.inc.SetInert(v, off)
		}
	}
}

// chainSink routes the shared pair/symmetry emission into the solver's
// current assumption group, tracking fresh-formula-equivalent sizes.
type chainSink struct{ c *ChainSolver }

func (s chainSink) newVar() int {
	s.c.grpAux++
	return s.c.inc.NewGroupVar()
}

func (s chainSink) add(lits ...sat.Lit) {
	n, added := s.c.inc.AddGroup(lits...)
	if added {
		s.c.grpCl++
		s.c.grpLit += n
	}
}

// translateSeeds maps warm-chain seed clauses from the fresh Encode
// variable space into the solver's. Buffers are reused across steps.
func (c *ChainSolver) translateSeeds(w *sat.Warm) *sat.Warm {
	if w == nil {
		return nil
	}
	need := 0
	for _, cl := range w.Clauses {
		need += len(cl)
	}
	if cap(c.seedLits) < need {
		c.seedLits = make([]sat.Lit, 0, need)
	}
	c.seedLits = c.seedLits[:0]
	c.seedBuf = c.seedBuf[:0]
	for _, cl := range w.Clauses {
		lo := len(c.seedLits)
		for _, l := range cl {
			iv := c.freshToInc[l.Var()]
			c.seedLits = append(c.seedLits, sat.Lit(2*iv)|(l&1))
		}
		c.seedBuf = append(c.seedBuf, c.seedLits[lo:len(c.seedLits):len(c.seedLits)])
	}
	return &sat.Warm{Clauses: c.seedBuf}
}

// decodePhases is Encoding.DecodePhases over the solver's variables.
func (c *ChainSolver) decodePhases(model []bool, m int) [][]sg.Phase {
	out := make([][]sg.Phase, m)
	for k := 0; k < m; k++ {
		col := make([]sg.Phase, c.n)
		for s := 0; s < c.n; s++ {
			col[s] = bitsPhase(model[c.aVar[s][k]], model[c.bVar[s][k]])
		}
		out[k] = col
	}
	return out
}

// solve is the incremental counterpart of solveUncached's encode-search-
// decode-tighten path, with the same outputs, side effects (metrics,
// tracing, warm-chain absorption) and error contract.
func (c *ChainSolver) solve(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, m int, opt SolveOptions, start time.Time) (cols [][]sg.Phase, stats FormulaStats, norm [][]sat.Lit, err error) {
	// Mirror Encode's error contract before touching solver state.
	if m <= 0 {
		return nil, FormulaStats{}, nil, fmt.Errorf("csc: need at least one state signal")
	}
	for _, p := range conf.CSC {
		if p.A == p.B {
			return nil, FormulaStats{}, nil, fmt.Errorf("csc: state %d conflicts with itself (merged class implies both values); enlarge the input set", p.A)
		}
	}
	c.rebind(g)
	c.ensureColumns(g, m)
	c.setActive(m)

	c.inc.BeginGroup()
	c.grpAux, c.grpCl, c.grpLit = 0, 0, 0
	sink := chainSink{c}
	emitPairsTseitin(sink, c.aVar, c.bVar, m, conf)
	emitSymmetry(sink, c.aVar, c.bVar, m)
	c.padTranslation()

	seeds := opt.Chain.Seed(len(g.States), m)
	if seeds != nil {
		metrics.From(ctx).Add(metrics.SATWarmClauses, int64(len(seeds.Clauses)))
	}
	metrics.From(ctx).Add(metrics.SATAssumptions, 1)
	exportStable := opt.Chain != nil
	t0 := time.Now()
	r := c.inc.SolveStep(c.colCl[m-1], sat.Limits{
		MaxBacktracks: opt.MaxBacktracks, Ctx: ctx, ExportStable: exportStable,
	}, c.translateSeeds(seeds))
	search := time.Since(t0)

	// Map exports back to the fresh variable space; a clause touching a
	// variable with no fresh counterpart cannot occur (stable derivations
	// involve only state variables) but is dropped defensively.
	if len(r.StableLearned) > 0 {
		kept := r.StableLearned[:0]
		for _, cl := range r.StableLearned {
			ok := true
			for i, l := range cl {
				fv := c.incToFresh[l.Var()]
				if fv < 0 {
					ok = false
					break
				}
				cl[i] = sat.Lit(2*fv) | (l & 1)
			}
			if ok {
				kept = append(kept, cl)
			}
		}
		r.StableLearned = kept
	}

	stats = FormulaStats{
		Signals: m, Vars: 2*c.n*m + c.grpAux, Clauses: c.colCl[m-1] + c.grpCl,
		Literals: c.colLit[m-1] + c.grpLit, Status: r.Status,
		SolveTime: time.Since(start), SearchTime: search, Engine: "dpll",
	}
	if r.Status == sat.Canceled {
		return nil, stats, nil, synerr.Canceled(ctx.Err())
	}
	emitFormula(ctx, stats)
	recordFormula(ctx, stats, r)
	if opt.Chain != nil && len(r.StableLearned) > 0 {
		norm = opt.Chain.Normalize(len(g.States), m, r.StableLearned)
		opt.Chain.AbsorbNormalized(norm)
	}
	if r.Status != sat.Sat {
		return nil, stats, norm, nil
	}
	cols = c.decodePhases(r.Model, m)
	Tighten(g, conf, cols)
	return cols, stats, norm, nil
}
