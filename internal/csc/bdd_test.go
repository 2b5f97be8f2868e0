package csc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// The CSC constraints as a reduced ordered binary decision diagram: an
// oracle for the verdicts and models of the chain solver's steps, built
// from the definitions (sg.EdgeCompatibleIO, stable separation and the
// USC overlap condition) with none of the CNF encoding's code. It
// checks the UNSAT verdicts the Figure 4 loop adds a state signal on,
// which no semantic check of the result can see, and it bounds each
// SAT model's excitation from below by the global minimum.

// bddNode is a node of a bddPool. 0 and 1 are the terminal constants.
type bddNode int32

const (
	bddFalse bddNode = 0
	bddTrue  bddNode = 1
)

type bddData struct {
	level  int32 // variable index; terminals use bddTermLevel
	lo, hi bddNode
}

const bddTermLevel = int32(1) << 30

// errNodeLimit reports that a diagram outgrew its pool's node limit.
var errNodeLimit = errors.New("bdd: node limit exceeded")

// bddPool owns the node table and the ite cache of one diagram.
type bddPool struct {
	nodes  []bddData
	unique map[bddData]bddNode
	iteC   map[[3]bddNode]bddNode
	limit  int
}

func newBDDPool(limit int) *bddPool {
	return &bddPool{
		nodes:  []bddData{{level: bddTermLevel}, {level: bddTermLevel}},
		unique: make(map[bddData]bddNode),
		iteC:   make(map[[3]bddNode]bddNode),
		limit:  limit,
	}
}

func (p *bddPool) mk(level int32, lo, hi bddNode) (bddNode, error) {
	if lo == hi {
		return lo, nil
	}
	key := bddData{level: level, lo: lo, hi: hi}
	if n, ok := p.unique[key]; ok {
		return n, nil
	}
	if len(p.nodes) >= p.limit {
		return 0, errNodeLimit
	}
	n := bddNode(len(p.nodes))
	p.nodes = append(p.nodes, key)
	p.unique[key] = n
	return n, nil
}

// Var returns the diagram of variable v, NVar that of ¬v.
func (p *bddPool) Var(v int) (bddNode, error)  { return p.mk(int32(v), bddFalse, bddTrue) }
func (p *bddPool) NVar(v int) (bddNode, error) { return p.mk(int32(v), bddTrue, bddFalse) }

// ite computes if-then-else(f, g, h).
func (p *bddPool) ite(f, g, h bddNode) (bddNode, error) {
	switch {
	case f == bddTrue:
		return g, nil
	case f == bddFalse:
		return h, nil
	case g == h:
		return g, nil
	case g == bddTrue && h == bddFalse:
		return f, nil
	}
	key := [3]bddNode{f, g, h}
	if n, ok := p.iteC[key]; ok {
		return n, nil
	}
	top := min(p.nodes[f].level, p.nodes[g].level, p.nodes[h].level)
	cof := func(n bddNode, hi bool) bddNode {
		switch {
		case p.nodes[n].level != top:
			return n
		case hi:
			return p.nodes[n].hi
		}
		return p.nodes[n].lo
	}
	hi, err := p.ite(cof(f, true), cof(g, true), cof(h, true))
	if err != nil {
		return 0, err
	}
	lo, err := p.ite(cof(f, false), cof(g, false), cof(h, false))
	if err != nil {
		return 0, err
	}
	n, err := p.mk(top, lo, hi)
	if err != nil {
		return 0, err
	}
	p.iteC[key] = n
	return n, nil
}

func (p *bddPool) And(f, g bddNode) (bddNode, error) { return p.ite(f, g, bddFalse) }
func (p *bddPool) Or(f, g bddNode) (bddNode, error)  { return p.ite(f, bddTrue, g) }
func (p *bddPool) Not(f bddNode) (bddNode, error)    { return p.ite(f, bddFalse, bddTrue) }

// Eval evaluates f under a full assignment indexed by variable.
func (p *bddPool) Eval(f bddNode, assign []bool) bool {
	for f != bddTrue && f != bddFalse {
		if nd := p.nodes[f]; assign[nd.level] {
			f = nd.hi
		} else {
			f = nd.lo
		}
	}
	return f == bddTrue
}

// MinCost returns the least total cost of the true variables over all
// models of f, with cost[v] ≥ 0 (variables beyond len(cost) cost 0),
// or ok false when f has no model. It is a dynamic program over the
// diagram: the global optimum.
func (p *bddPool) MinCost(f bddNode, cost []int) (total int, ok bool) {
	memo := make(map[bddNode]float64)
	var best func(n bddNode) float64
	best = func(n bddNode) float64 {
		switch n {
		case bddFalse:
			return math.Inf(1)
		case bddTrue:
			return 0
		}
		if c, ok := memo[n]; ok {
			return c
		}
		nd := p.nodes[n]
		hi := best(nd.hi)
		if int(nd.level) < len(cost) {
			hi += float64(cost[nd.level])
		}
		c := min(best(nd.lo), hi)
		memo[n] = c
		return c
	}
	c := best(f)
	return int(c), !math.IsInf(c, 1)
}

// oracleNodeLimit bounds each step's diagram. A step whose diagram
// outgrows it is left to the Encode comparison alone; a larger limit
// decides more steps at a cost that grows much faster than their count.
const oracleNodeLimit = 50000

// oraclePhases are the four phases, in the order of their two-bit code
// (excited bit, level bit) in the diagram: P0, P1, Up, Down. The
// diagram keeps its own code, not the encoding's.
var oraclePhases = [4]sg.Phase{sg.P0, sg.P1, sg.PUp, sg.PDown}

// oracleBits returns the excited and level bits of ph in the diagram.
func oracleBits(ph sg.Phase) (excited, level bool) {
	for c, q := range oraclePhases {
		if q == ph {
			return c >= 2, c%2 == 1
		}
	}
	panic(fmt.Sprintf("phase %v", ph))
}

// halves lists the (level, excited) states a phase of a state signal
// takes once its transition is inserted: a stable phase holds one
// level, an excited one is excited at its start level and stable at
// the other after firing.
func halves(ph sg.Phase) [][2]int {
	switch ph {
	case sg.P0:
		return [][2]int{{0, 0}}
	case sg.P1:
		return [][2]int{{1, 0}}
	case sg.PUp:
		return [][2]int{{0, 1}, {1, 0}}
	}
	return [][2]int{{1, 1}, {0, 0}}
}

// uscClash reports whether two unseparated equal-code states with the
// phases p and q would look different through their signal: at a level
// both take, one is excited and the other stable.
func uscClash(p, q sg.Phase) bool {
	for _, x := range halves(p) {
		for _, y := range halves(q) {
			if x[0] == y[0] && x[1] != y[1] {
				return true
			}
		}
	}
	return false
}

// oracleDiagram is the diagram of one step's CSC constraints over the
// 2·n·m phase bits, state by state and signal by signal: the excited
// bit of state s in column k is variable 2(s·m+k), its level bit the
// next one.
type oracleDiagram struct {
	p    *bddPool
	f    bddNode
	n, m int
}

// buildOracle conjoins the constraints of m signals on g for conf: every
// edge's phase pair is sg.EdgeCompatibleIO, every CSC pair is stably
// separated (P0 against P1) by some signal, and every USC pair is
// separated or clash-free on every signal. It returns errNodeLimit when
// the diagram outgrows limit; a False diagram is an UNSAT verdict.
func buildOracle(g *sg.Graph, conf *sg.Conflicts, m, limit int) (*oracleDiagram, error) {
	d := &oracleDiagram{p: newBDDPool(limit), n: len(g.States), m: m}
	p := d.p
	lit := func(v int, on bool) (bddNode, error) {
		if on {
			return p.Var(v)
		}
		return p.NVar(v)
	}
	phaseIs := func(s, k int, ph sg.Phase) (bddNode, error) {
		eb, lb := oracleBits(ph)
		e, err := lit(2*(s*m+k), eb)
		if err != nil {
			return 0, err
		}
		l, err := lit(2*(s*m+k)+1, lb)
		if err != nil {
			return 0, err
		}
		return p.And(e, l)
	}
	// anyPair is the disjunction, over the phase pairs ok accepts, of
	// state s in ph and state t in qh on column k.
	anyPair := func(s, t, k int, ok func(ph, qh sg.Phase) bool) (bddNode, error) {
		acc := bddFalse
		for _, ph := range oraclePhases {
			for _, qh := range oraclePhases {
				if !ok(ph, qh) {
					continue
				}
				fs, err := phaseIs(s, k, ph)
				if err != nil {
					return 0, err
				}
				ft, err := phaseIs(t, k, qh)
				if err != nil {
					return 0, err
				}
				both, err := p.And(fs, ft)
				if err != nil {
					return 0, err
				}
				if acc, err = p.Or(acc, both); err != nil {
					return 0, err
				}
			}
		}
		return acc, nil
	}
	stablySeparated := func(ph, qh sg.Phase) bool {
		return ph == sg.P0 && qh == sg.P1 || ph == sg.P1 && qh == sg.P0
	}
	separated := func(pr sg.Pair) (bddNode, error) {
		acc := bddFalse
		for k := 0; k < m; k++ {
			f, err := anyPair(pr.A, pr.B, k, stablySeparated)
			if err != nil {
				return 0, err
			}
			if acc, err = p.Or(acc, f); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}

	d.f = bddTrue
	conj := func(f bddNode) error {
		var err error
		d.f, err = p.And(d.f, f)
		return err
	}
	for _, ed := range g.Edges {
		input := g.InputEdge(ed)
		for k := 0; k < m; k++ {
			f, err := anyPair(ed.From, ed.To, k, func(ph, qh sg.Phase) bool { return sg.EdgeCompatibleIO(ph, qh, input) })
			if err != nil {
				return nil, err
			}
			if err := conj(f); err != nil || d.f == bddFalse {
				return d, err
			}
		}
	}
	for _, pr := range conf.CSC {
		f, err := separated(pr)
		if err != nil {
			return nil, err
		}
		if err := conj(f); err != nil || d.f == bddFalse {
			return d, err
		}
	}
	for _, pr := range conf.USC {
		f, err := separated(pr)
		if err != nil {
			return nil, err
		}
		for k := 0; k < m; k++ {
			clash, err := anyPair(pr.A, pr.B, k, uscClash)
			if err != nil {
				return nil, err
			}
			calm, err := p.Not(clash)
			if err != nil {
				return nil, err
			}
			if calm, err = p.Or(f, calm); err != nil {
				return nil, err
			}
			if err := conj(calm); err != nil || d.f == bddFalse {
				return d, err
			}
		}
	}
	return d, nil
}

// assignment gives the diagram's variables the phases of cols.
func (d *oracleDiagram) assignment(cols [][]sg.Phase) []bool {
	a := make([]bool, 2*d.n*d.m)
	for k, col := range cols {
		for s, ph := range col {
			a[2*(s*d.m+k)], a[2*(s*d.m+k)+1] = oracleBits(ph)
		}
	}
	return a
}

// minExcited returns the fewest excited (state, signal) pairs of any
// model of a satisfiable diagram.
func (d *oracleDiagram) minExcited() int {
	cost := make([]int, 2*d.n*d.m)
	for v := 0; v < len(cost); v += 2 {
		cost[v] = 1
	}
	c, _ := d.p.MinCost(d.f, cost)
	return c
}

// excited counts the excited (state, signal) pairs of cols.
func excited(cols [][]sg.Phase) int {
	n := 0
	for _, col := range cols {
		for _, ph := range col {
			if ph == sg.PUp || ph == sg.PDown {
				n++
			}
		}
	}
	return n
}

// OracleTally counts what the diagram oracle decided over the steps of
// a checked chain solver.
type OracleTally struct {
	// Decided counts the steps whose diagram fit the node limit, and
	// Unsat the UNSAT verdicts among them.
	Decided, Unsat int
	// AtMin and AboveMin count the SAT steps whose tightened model has
	// the diagram's minimum excitation, or more.
	AtMin, AboveMin int
	// Time is the time spent building and reading diagrams.
	Time time.Duration
}

func (t OracleTally) String() string {
	return fmt.Sprintf("diagram decided %d steps (%d UNSAT); tightened SAT models at the minimum excitation %d, above it %d; %v",
		t.Decided, t.Unsat, t.AtMin, t.AboveMin, t.Time.Round(time.Millisecond))
}

// matchesOracle checks a step against its diagram when the diagram fits
// oracleNodeLimit: the diagram must give the step's verdict, and a SAT
// step's tightened model must satisfy it with no fewer excited states
// than its minimum. A step that exhausted its backtrack budget has no
// verdict to check.
func (st chainStep) matchesOracle(tally *OracleTally) error {
	if st.r.Status != sat.Sat && st.r.Status != sat.Unsat {
		return nil
	}
	t0 := time.Now()
	defer func() { tally.Time += time.Since(t0) }()
	d, err := buildOracle(st.g, st.conf, st.m, oracleNodeLimit)
	if errors.Is(err, errNodeLimit) {
		return nil
	}
	if err != nil {
		return err
	}
	tally.Decided++
	if d.f == bddFalse {
		tally.Unsat++
		if st.r.Status != sat.Unsat {
			return fmt.Errorf("diagram: UNSAT, chain solver %v", st.r.Status)
		}
		return nil
	}
	if st.r.Status != sat.Sat {
		return fmt.Errorf("diagram: SAT, chain solver %v", st.r.Status)
	}
	if !d.p.Eval(d.f, d.assignment(st.cols)) {
		return fmt.Errorf("diagram rejects the tightened model %v", st.cols)
	}
	switch got, least := excited(st.cols), d.minExcited(); {
	case got < least:
		return fmt.Errorf("tightened model excites %d (state, signal) pairs, below the diagram's minimum %d", got, least)
	case got == least:
		tally.AtMin++
	default:
		tally.AboveMin++
	}
	return nil
}

// bddExpr is a random boolean expression for cross-checking the pool
// against direct evaluation.
type bddExpr struct {
	op       byte // 'v' variable, 'n' negated variable, '&', '|', '!'
	v        int
	lhs, rhs *bddExpr
}

func randBDDExpr(rng *rand.Rand, vars, depth int) *bddExpr {
	if depth == 0 || rng.Intn(4) == 0 {
		return &bddExpr{op: "vn"[rng.Intn(2)], v: rng.Intn(vars)}
	}
	e := &bddExpr{op: "&|!"[rng.Intn(3)], lhs: randBDDExpr(rng, vars, depth-1)}
	if e.op != '!' {
		e.rhs = randBDDExpr(rng, vars, depth-1)
	}
	return e
}

func (e *bddExpr) eval(a []bool) bool {
	switch e.op {
	case 'v':
		return a[e.v]
	case 'n':
		return !a[e.v]
	case '&':
		return e.lhs.eval(a) && e.rhs.eval(a)
	case '|':
		return e.lhs.eval(a) || e.rhs.eval(a)
	}
	return !e.lhs.eval(a)
}

func (e *bddExpr) build(p *bddPool) (bddNode, error) {
	switch e.op {
	case 'v':
		return p.Var(e.v)
	case 'n':
		return p.NVar(e.v)
	case '!':
		f, err := e.lhs.build(p)
		if err != nil {
			return 0, err
		}
		return p.Not(f)
	}
	f, err := e.lhs.build(p)
	if err != nil {
		return 0, err
	}
	g, err := e.rhs.build(p)
	if err != nil {
		return 0, err
	}
	if e.op == '&' {
		return p.And(f, g)
	}
	return p.Or(f, g)
}

// mustBuild builds e in p, failing the test on a node-limit error.
func mustBuild(t *testing.T, e *bddExpr, p *bddPool) bddNode {
	t.Helper()
	f, err := e.build(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBDDPoolTerminalsAndVar checks the terminals, Var and NVar on
// both values of their variable, and that the unique table returns one
// node per variable and polarity.
func TestBDDPoolTerminalsAndVar(t *testing.T) {
	p := newBDDPool(1 << 16)
	x, err := p.Var(3)
	if err != nil {
		t.Fatal(err)
	}
	nx, err := p.NVar(3)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]bool, 4)
	if p.Eval(x, a) || !p.Eval(nx, a) {
		t.Fatal("Var/NVar wrong with the variable at 0")
	}
	a[3] = true
	if !p.Eval(x, a) || p.Eval(nx, a) {
		t.Fatal("Var/NVar wrong with the variable at 1")
	}
	if !p.Eval(bddTrue, a) || p.Eval(bddFalse, a) {
		t.Fatal("terminals wrong")
	}
	if x2, _ := p.Var(3); x2 != x {
		t.Fatalf("Var(3) twice: nodes %d and %d", x, x2)
	}
	if n, _ := p.Not(x); n != nx {
		t.Fatalf("Not(Var(3)) is node %d, NVar(3) node %d", n, nx)
	}
}

// TestBDDPoolSemanticsRandom checks the diagrams of random expressions
// against direct evaluation on every assignment, and that building an
// expression twice in one pool yields the same node.
func TestBDDPoolSemanticsRandom(t *testing.T) {
	const vars = 6
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		e := randBDDExpr(rng, vars, 5)
		p := newBDDPool(1 << 16)
		f := mustBuild(t, e, p)
		if f2 := mustBuild(t, e, p); f2 != f {
			t.Fatalf("expression %d: built twice as nodes %d and %d", i, f, f2)
		}
		a := make([]bool, vars)
		for m := 0; m < 1<<vars; m++ {
			for v := range a {
				a[v] = m&(1<<v) != 0
			}
			if got, want := p.Eval(f, a), e.eval(a); got != want {
				t.Fatalf("expression %d, assignment %06b: diagram %v, expression %v", i, m, got, want)
			}
		}
	}
}

// TestBDDPoolMinCost checks the minimum cost against the cheapest
// satisfying assignment found by enumeration, and that a function with
// no model reports none.
func TestBDDPoolMinCost(t *testing.T) {
	const vars = 6
	rng := rand.New(rand.NewSource(29))
	unsat := 0
	for i := 0; i < 300; i++ {
		e := randBDDExpr(rng, vars, 5)
		p := newBDDPool(1 << 16)
		f := mustBuild(t, e, p)
		cost := make([]int, vars)
		for v := range cost {
			cost[v] = rng.Intn(4)
		}
		least, any := math.MaxInt, false
		a := make([]bool, vars)
		for m := 0; m < 1<<vars; m++ {
			c := 0
			for v := range a {
				if a[v] = m&(1<<v) != 0; a[v] {
					c += cost[v]
				}
			}
			if e.eval(a) {
				least, any = min(least, c), true
			}
		}
		if !any {
			unsat++
		}
		if got, ok := p.MinCost(f, cost); ok != any || (any && got != least) {
			t.Fatalf("expression %d: MinCost %d, %v; enumeration %d, %v", i, got, ok, least, any)
		}
	}
	if unsat == 0 || unsat == 300 {
		t.Fatalf("%d of 300 expressions unsatisfiable: want both kinds", unsat)
	}
}

// TestBDDPoolNodeLimit: the conjunction of x_v ≠ x_(v+7 mod 32) over 32
// variables needs far more than 8 nodes; the pool reports errNodeLimit
// and never holds more nodes than its limit.
func TestBDDPoolNodeLimit(t *testing.T) {
	const limit = 8
	p := newBDDPool(limit)
	acc := bddTrue
	var err error
	for v := 0; v < 32 && err == nil; v++ {
		var x, ny, y, xy bddNode
		if x, err = p.Var(v); err != nil {
			break
		}
		if ny, err = p.NVar((v + 7) % 32); err != nil {
			break
		}
		if y, err = p.Var((v + 7) % 32); err != nil {
			break
		}
		if xy, err = p.ite(x, ny, y); err != nil {
			break
		}
		acc, err = p.And(acc, xy)
	}
	if !errors.Is(err, errNodeLimit) {
		t.Fatalf("want errNodeLimit, got %v", err)
	}
	if len(p.nodes) > limit {
		t.Fatalf("pool holds %d nodes, limit %d", len(p.nodes), limit)
	}
}

// TestOracleTwoPulse: on the two-pulse graph one signal resolves CSC,
// and the cheapest model excites exactly two states, the one Up and
// the one Down a 6-cycle needs. A node limit below the diagram's size
// is reported as errNodeLimit, never as a verdict.
func TestOracleTwoPulse(t *testing.T) {
	g := graph(t, twoPulse)
	conf := sg.Analyze(g)
	d, err := buildOracle(g, conf, 1, oracleNodeLimit)
	if err != nil {
		t.Fatal(err)
	}
	if d.f == bddFalse {
		t.Fatal("diagram UNSAT, want SAT")
	}
	if got := d.minExcited(); got != 2 {
		t.Fatalf("minimum excitation %d, want 2", got)
	}
	if _, err := buildOracle(g, conf, 1, 16); !errors.Is(err, errNodeLimit) {
		t.Fatalf("16-node limit: %v, want errNodeLimit", err)
	}
}

// TestOracleUnsatGrowth: pa has a code group of three mutually
// conflicting states, which one binary signal cannot separate
// pairwise; two can. The m=2 diagram needs more than oracleNodeLimit.
func TestOracleUnsatGrowth(t *testing.T) {
	spec, err := bench.Load("pa")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conf := sg.Analyze(g)
	for m, wantUnsat := range map[int]bool{1: true, 2: false} {
		d, err := buildOracle(g, conf, m, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if unsat := d.f == bddFalse; unsat != wantUnsat {
			t.Errorf("m=%d: diagram UNSAT %v, want %v", m, unsat, wantUnsat)
		}
	}
}

// TestOracleUSCClash: the overlap definition the diagram uses for
// unseparated equal-code pairs forbids exactly the six phase pairs the
// encoding blocks (DESIGN.md §3.5).
func TestOracleUSCClash(t *testing.T) {
	var clash [][2]sg.Phase
	for _, p := range oraclePhases {
		for _, q := range oraclePhases {
			if uscClash(p, q) {
				clash = append(clash, [2]sg.Phase{p, q})
			}
		}
	}
	want := map[[2]sg.Phase]bool{}
	for _, bp := range uscBlockedPairs {
		want[bp] = true
	}
	if len(clash) != len(want) {
		t.Fatalf("clashing pairs %v, encoding blocks %v", clash, uscBlockedPairs)
	}
	for _, bp := range clash {
		if !want[bp] {
			t.Fatalf("clashing pairs %v, encoding blocks %v", clash, uscBlockedPairs)
		}
	}
}
