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
// persistent assumption-based incremental solver (sat.Incremental): it
// is the one DPLL path of every CSC formula. The column-major variable
// layout makes chain formulas share a literal prefix: the
// edge-compatibility clauses of column k are identical in every formula
// that has column k. The solver keeps each column's variables, and each
// step generates the active columns' edge blocks from the graph straight
// into the solver's clause arena as the step's stable block, so a
// formula is written once and no clause is stored between steps. Only
// the per-attempt pair/symmetry constraints are emitted into a
// retire-and-replace assumption group. Columns beyond the current
// attempt's m are deactivated rather than discarded, so a chain can
// shrink m (the greedy insertion loop's m=1 attempts after a joint m=2
// try) and grow it again for free.
//
// A step is exact: its result (verdict, model, counters, stable
// exports) is bit-identical to a from-scratch search of the one-shot
// formula, which the package tests build (Encode) and check every step
// against. A ChainSolver is bound to one graph and resets when it is
// handed a different one; a step is bit-identical to a fresh solve
// whether or not the solver was reset. It is not safe for concurrent
// use — chains are per-module and modules solve sequentially.
type ChainSolver struct {
	g       *sg.Graph // the bound graph
	inc     *sat.Incremental
	blockCl int    // edge-compatibility clauses per column, four literals each
	lay     layout // lay.lo[k]: first solver variable of column k
	colOff  []bool // column k currently deactivated

	// Fresh-formula-equivalent sizes of the current assumption group.
	grpAux, grpCl, grpLit int

	emit  emitter
	seeds seedBuf

	// check, when set, is handed every completed step; the package
	// tests use it to compare each step with its one-shot formula.
	check func(chainStep)
}

// chainStep is one completed step as check sees it: its problem, the
// warm-chain seeds it was given and its outcome, both over the solver's
// variables, and the layout of its state variables.
type chainStep struct {
	g     *sg.Graph
	conf  *sg.Conflicts
	m     int
	opt   SolveOptions
	lay   layout
	seeds *sat.Warm
	r     sat.Result
	stats FormulaStats
	cols  [][]sg.Phase
}

// NewChainSolver returns an empty, unbound chain solver.
func NewChainSolver() *ChainSolver { return &ChainSolver{} }

// rebind attaches the solver to g, resetting it when g is not the bound
// graph.
func (c *ChainSolver) rebind(g *sg.Graph) {
	if c.g == g {
		return
	}
	c.g = g
	c.inc = sat.NewIncremental()
	c.blockCl = 0
	for _, ed := range g.Edges {
		switch {
		case ed.From == ed.To:
		case g.InputEdge(ed):
			c.blockCl += len(inputBlock)
		default:
			c.blockCl += len(outputBlock)
		}
	}
	c.lay = layout{n: len(g.States), lo: c.lay.lo[:0]}
	c.colOff = c.colOff[:0]
}

// edgeBlock lists an edge's edge-compatibility clauses, one per blocked
// phase pair in order, as literal offsets: the clause of an edge from s
// to t in column k is A(s)+o[0], A(s)+o[1], A(t)+o[2], A(t)+o[3] with
// A(s) = sat.PosLit(a(s, k)), the four literals that block the pair.
func edgeBlock(blocked [][2]sg.Phase) [][4]sat.Lit {
	out := make([][4]sat.Lit, len(blocked))
	for i, bp := range blocked {
		pa, pb := phaseBits(bp[0])
		qa, qb := phaseBits(bp[1])
		out[i] = [4]sat.Lit{clauseLit(0, pa), clauseLit(1, pb), clauseLit(0, qa), clauseLit(1, qb)}
	}
	return out
}

var (
	outputBlock = edgeBlock(blockedOutputEdge)
	inputBlock  = edgeBlock(blockedInputEdge)
)

// ensureColumns allocates the state variables of columns up to m, each
// a bit preferring false (stable phases: every needlessly excited state
// multiplies the expanded state graph). It emits no clause:
// appendBlocks generates the columns' edge blocks at every step.
func (c *ChainSolver) ensureColumns(m int) {
	for k := len(c.lay.lo); k < m; k++ {
		c.lay.lo = append(c.lay.lo, c.inc.NumVars())
		c.colOff = append(c.colOff, false)
		for s := 0; s < c.lay.n; s++ {
			av := c.inc.NewVar()
			c.inc.NewVar()
			c.inc.Prefer(av, false)
		}
	}
}

// setActive (de)activates column variable blocks so exactly the first m
// columns take part in the next step's search.
func (c *ChainSolver) setActive(m int) {
	for k := range c.colOff {
		off := k >= m
		if c.colOff[k] == off {
			continue
		}
		c.colOff[k] = off
		lo := c.lay.lo[k]
		for v := lo; v < lo+2*c.lay.n; v++ {
			c.inc.SetInert(v, off)
		}
	}
}

// appendBlocks writes a step's sat.Block: the edge-compatibility clauses
// of the first m columns, generated from the bound graph in the
// one-shot formula's order (column, edge, blocked pair). A self-loop
// edge writes nothing. EdgeCompatible(x, x) always holds, so every
// blocked pair (p, q) has p ≠ q, and on a single state each of its
// clauses holds a variable and its complement: a tautology, which
// sat.Formula.Add drops. Every other clause holds four distinct
// variables.
func (c *ChainSolver) appendBlocks(arena []sat.Lit, m int) []sat.Lit {
	g := c.g
	for k := 0; k < m; k++ {
		for _, ed := range g.Edges {
			if ed.From == ed.To {
				continue
			}
			block := outputBlock
			if g.InputEdge(ed) {
				block = inputBlock
			}
			from, to := sat.PosLit(c.lay.a(ed.From, k)), sat.PosLit(c.lay.a(ed.To, k))
			for _, o := range block {
				arena = sat.AppendStable(arena, from+o[0], from+o[1], to+o[2], to+o[3])
			}
		}
	}
	return arena
}

// chainSink routes the shared pair/symmetry emission into the solver's
// current assumption group, tracking fresh-formula-equivalent sizes.
type chainSink struct{ c *ChainSolver }

func (s chainSink) newVar() int {
	s.c.grpAux++
	return s.c.inc.NewGroupVar()
}

func (s chainSink) add(lits []sat.Lit) {
	n, added := s.c.inc.AddGroup(lits...)
	if added {
		s.c.grpCl++
		s.c.grpLit += n
	}
}

// solve is one DPLL attempt: emit, search, decode, tighten. It records
// the formula in the run's metrics and trace, absorbs the stable
// exports into opt.Chain and returns their normalized form (see
// solveUncached).
func (c *ChainSolver) solve(ctx context.Context, g *sg.Graph, conf *sg.Conflicts, m int, opt SolveOptions, start time.Time) (cols [][]sg.Phase, stats FormulaStats, norm [][]sat.Lit, err error) {
	// Reject what no formula can express before touching solver state.
	if m <= 0 {
		return nil, FormulaStats{}, nil, fmt.Errorf("csc: need at least one state signal")
	}
	for _, p := range conf.CSC {
		if p.A == p.B {
			return nil, FormulaStats{}, nil, fmt.Errorf("csc: state %d conflicts with itself (merged class implies both values); enlarge the input set", p.A)
		}
	}
	c.rebind(g)
	c.ensureColumns(m)
	c.setActive(m)

	c.inc.BeginGroup()
	c.grpAux, c.grpCl, c.grpLit = 0, 0, 0
	c.emit.sink, c.emit.lay = chainSink{c}, c.lay
	c.emit.pairs(m, conf, opt.ExpandXor)

	seeds := opt.Chain.seed(c.lay, m, &c.seeds)
	if seeds != nil {
		metrics.From(ctx).Add(metrics.SATWarmClauses, int64(len(seeds.Clauses)))
	}
	metrics.From(ctx).Add(metrics.SATAssumptions, 1)
	exportStable := opt.Chain != nil
	t0 := time.Now()
	block := sat.Block{Clauses: m * c.blockCl, Literals: 4 * m * c.blockCl,
		Append: func(arena []sat.Lit) []sat.Lit { return c.appendBlocks(arena, m) }}
	r := c.inc.SolveStep(block, sat.Limits{
		MaxBacktracks: opt.MaxBacktracks, Ctx: ctx, ExportStable: exportStable,
	}, seeds)
	search := time.Since(t0)

	stats = FormulaStats{
		Signals: m, Vars: 2*c.lay.n*m + c.grpAux, Clauses: block.Clauses + c.grpCl,
		Literals: block.Literals + c.grpLit, Status: r.Status,
		SolveTime: time.Since(start), SearchTime: search, Engine: "dpll",
	}
	if r.Status == sat.Canceled {
		return nil, stats, nil, synerr.Canceled(ctx.Err())
	}
	emitFormula(ctx, stats)
	recordFormula(ctx, stats, r)
	if opt.Chain != nil && len(r.StableLearned) > 0 {
		norm = opt.Chain.normalize(c.lay, m, r.StableLearned)
		opt.Chain.AbsorbNormalized(norm)
	}
	if r.Status == sat.Sat {
		cols = c.lay.decode(r.Model, m)
		Tighten(g, conf, cols)
	}
	if c.check != nil {
		c.check(chainStep{g: g, conf: conf, m: m, opt: opt, lay: c.lay, seeds: seeds, r: r, stats: stats, cols: cols})
	}
	return cols, stats, norm, nil
}
