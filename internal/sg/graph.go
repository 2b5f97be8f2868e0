package sg

import (
	"context"
	"fmt"
	"sort"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/petri"
	"asyncsyn/internal/stg"
)

// SignalInfo describes one base signal of a state graph.
type SignalInfo struct {
	Name  string
	Input bool
}

// Edge is a labelled state graph transition. Sig < 0 marks an ε (silent)
// edge; otherwise Sig indexes Graph.Base.
type Edge struct {
	From, To int
	Sig      int
	Dir      stg.Dir
}

// StateSignal is an inserted state signal: a name plus a phase per state.
type StateSignal struct {
	Name   string
	Phases []Phase // indexed by state
}

// State is one state graph node. Code holds the binary levels of the base
// signals (bit i = signal i), masked by the owning graph's Active mask.
// Marking is retained only on graphs generated directly from an STG.
type State struct {
	Code    uint64
	Marking petri.Marking
}

// Graph is a state graph: the reachable-state automaton of an STG with a
// consistent binary state assignment, possibly quotiented (modular) and
// possibly carrying inserted state signals as 4-valued phase columns.
type Graph struct {
	Name    string
	Base    []SignalInfo
	Active  uint64 // mask of base signals participating in state codes
	States  []State
	Edges   []Edge
	Out     [][]int // per-state outgoing edge indices
	In      [][]int // per-state incoming edge indices
	Initial int

	StateSigs []StateSignal

	// Origin maps each state to the state of the pre-expansion graph it
	// came from; nil unless the graph was produced by Expand.
	Origin []int
}

// MaxSignals caps the total signal count so state codes fit in a uint64.
const MaxSignals = 58

// NumStates returns the number of states.
func (g *Graph) NumStates() int { return len(g.States) }

// addEdge appends an edge and indexes it.
func (g *Graph) addEdge(e Edge) {
	g.Edges = append(g.Edges, e)
	g.Out[e.From] = append(g.Out[e.From], len(g.Edges)-1)
	g.In[e.To] = append(g.In[e.To], len(g.Edges)-1)
}

// indexEdges (re)builds Out and In from Edges in two counted passes: the
// per-state lists are carved out of two backing arrays with exact sizes
// instead of growing by repeated append. Edge indices appear in each
// list in ascending order — the same order incremental addEdge calls
// produce.
func (g *Graph) indexEdges() {
	n := len(g.States)
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for _, e := range g.Edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	if g.Out == nil {
		g.Out = make([][]int, n)
	}
	if g.In == nil {
		g.In = make([][]int, n)
	}
	outBack := make([]int, len(g.Edges))
	inBack := make([]int, len(g.Edges))
	outOff, inOff := 0, 0
	for s := 0; s < n; s++ {
		g.Out[s] = outBack[outOff : outOff : outOff+outDeg[s]]
		g.In[s] = inBack[inOff : inOff : inOff+inDeg[s]]
		outOff += outDeg[s]
		inOff += inDeg[s]
	}
	for ei, e := range g.Edges {
		g.Out[e.From] = append(g.Out[e.From], ei)
		g.In[e.To] = append(g.In[e.To], ei)
	}
}

// FullCode returns the complete binary code of state s: base signal
// levels (masked by Active) plus the levels of all state signal phases,
// packed above the base bits.
func (g *Graph) FullCode(s int) uint64 {
	code := g.States[s].Code & g.Active
	for k, ss := range g.StateSigs {
		if ss.Phases[s].Level() == 1 {
			code |= 1 << (len(g.Base) + k)
		}
	}
	return code
}

// EnabledNonInputs returns the bitmask of non-input base signals with an
// enabled transition in state s.
func (g *Graph) EnabledNonInputs(s int) uint64 {
	var m uint64
	for _, ei := range g.Out[s] {
		e := g.Edges[ei]
		if e.Sig >= 0 && !g.Base[e.Sig].Input {
			m |= 1 << e.Sig
		}
	}
	return m
}

// ImpliedValue returns the next value that non-input base signal sig must
// take from state s: 1 if sig+ is enabled, 0 if sig− is enabled, else the
// current level.
func (g *Graph) ImpliedValue(s, sig int) uint8 {
	for _, ei := range g.Out[s] {
		e := g.Edges[ei]
		if e.Sig == sig {
			if e.Dir == stg.Rising {
				return 1
			}
			return 0
		}
	}
	if g.States[s].Code&(1<<sig) != 0 {
		return 1
	}
	return 0
}

// The state graph generation defaults, applied to a zero Options field.
const (
	DefaultTokenBound = 1      // safe nets
	DefaultMaxStates  = 100000 // reachable markings explored
)

// Options controls state graph generation.
type Options struct {
	Bound     int // token bound per place; default DefaultTokenBound
	MaxStates int // exploration cap; default DefaultMaxStates
}

func (o Options) withDefaults() Options {
	if o.Bound == 0 {
		o.Bound = DefaultTokenBound
	}
	if o.MaxStates == 0 {
		o.MaxStates = DefaultMaxStates
	}
	return o
}

// FromSTG generates the complete state graph Σ of an STG: exhaustive
// reachable markings with a consistent binary state assignment inferred
// by propagating the firing constraints of every signal transition
// (si+ requires level 0 before and 1 after, and no other edge may change
// si's level). It fails if the net is unbounded, the assignment is
// inconsistent (the STG violates consistent state coding), or a signal's
// level cannot be determined.
func FromSTG(g *stg.G, opt Options) (*Graph, error) {
	return FromSTGContext(context.Background(), g, opt)
}

// FromSTGContext is FromSTG under a cancellation context: the
// reachability exploration polls ctx and stops early (with an error
// matching synerr.ErrCanceled) when it is canceled.
func FromSTGContext(ctx context.Context, g *stg.G, opt Options) (*Graph, error) {
	opt = opt.withDefaults()
	if len(g.Signals) > MaxSignals {
		return nil, fmt.Errorf("sg: %d signals exceed the %d-signal limit", len(g.Signals), MaxSignals)
	}
	r, err := g.Net.ReachContext(ctx, opt.Bound, opt.MaxStates)
	if err != nil {
		return nil, err
	}
	metrics.From(ctx).Add(metrics.SGStates, int64(len(r.States)))

	sgr := &Graph{
		Name:    g.Name,
		Base:    make([]SignalInfo, len(g.Signals)),
		Active:  (uint64(1) << len(g.Signals)) - 1,
		States:  make([]State, len(r.States)),
		Out:     make([][]int, len(r.States)),
		In:      make([][]int, len(r.States)),
		Initial: 0,
	}
	for i, s := range g.Signals {
		sgr.Base[i] = SignalInfo{Name: s.Name, Input: s.Kind == stg.Input}
	}
	for i, m := range r.States {
		sgr.States[i] = State{Marking: m}
	}
	sgr.Edges = make([]Edge, 0, len(r.Edges))
	for _, e := range r.Edges {
		l := g.Labels[e.Trans]
		sgr.Edges = append(sgr.Edges, Edge{From: e.From, To: e.To, Sig: l.Sig, Dir: l.Dir})
	}
	sgr.indexEdges()

	vals, err := inferValues(g, sgr)
	if err != nil {
		return nil, err
	}
	for i := range sgr.States {
		var code uint64
		for s := 0; s < len(g.Signals); s++ {
			if vals[i][s] == 1 {
				code |= 1 << s
			}
		}
		sgr.States[i].Code = code
	}
	return sgr, nil
}

// inferValues computes the binary level of every signal in every state.
// Values propagate along edges: an edge for signal s fixes s's level on
// both endpoints (0→1 for rising, 1→0 for falling, complement for
// toggle); every other edge preserves s's level. Conflicts mean the STG
// has no consistent state assignment.
func inferValues(g *stg.G, sgr *Graph) ([][]int8, error) {
	n, ns := len(sgr.States), len(g.Signals)
	vals := make([][]int8, n)
	for i := range vals {
		vals[i] = make([]int8, ns)
		for j := range vals[i] {
			vals[i][j] = -1
		}
	}

	type seed struct {
		state int
		sig   int
		v     int8
	}
	var queue []seed
	set := func(st, sig int, v int8) error {
		switch vals[st][sig] {
		case -1:
			vals[st][sig] = v
			queue = append(queue, seed{st, sig, v})
		case v:
		default:
			return fmt.Errorf("sg: inconsistent state assignment for signal %q (marking state %d requires both 0 and 1)",
				g.Signals[sig].Name, st)
		}
		return nil
	}

	// Seed from every non-toggle signal edge.
	for _, e := range sgr.Edges {
		if e.Sig < 0 || e.Dir == stg.Toggle {
			continue
		}
		var before, after int8 = 0, 1
		if e.Dir == stg.Falling {
			before, after = 1, 0
		}
		if err := set(e.From, e.Sig, before); err != nil {
			return nil, err
		}
		if err := set(e.To, e.Sig, after); err != nil {
			return nil, err
		}
	}

	// Propagate: for signal s, a non-s edge preserves the level; an s
	// toggle edge complements it.
	drain := func() error {
		for len(queue) > 0 {
			sd := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			prop := func(ei int, other int) error {
				e := sgr.Edges[ei]
				v := sd.v
				if e.Sig == sd.sig {
					if e.Dir != stg.Toggle {
						return nil // endpoints already seeded
					}
					v = 1 - v
				}
				return set(other, sd.sig, v)
			}
			for _, ei := range sgr.Out[sd.state] {
				if err := prop(ei, sgr.Edges[ei].To); err != nil {
					return err
				}
			}
			for _, ei := range sgr.In[sd.state] {
				if err := prop(ei, sgr.Edges[ei].From); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := drain(); err != nil {
		return nil, err
	}

	// A signal with only toggle transitions has consistent parity but no
	// absolute level; anchor it at 0 in the initial state (the usual
	// astg convention) and re-propagate.
	for sig := range g.Signals {
		if vals[sgr.Initial][sig] == -1 {
			if err := set(sgr.Initial, sig, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}

	for st := range vals {
		for sig, v := range vals[st] {
			if v == -1 {
				return nil, fmt.Errorf("sg: level of signal %q undetermined in state %d (signal never switches in a reachable marking)",
					g.Signals[sig].Name, st)
			}
		}
	}
	return vals, nil
}

// SignalIndex finds a base signal by name.
func (g *Graph) SignalIndex(name string) (int, bool) {
	for i, b := range g.Base {
		if b.Name == name {
			return i, true
		}
	}
	return -1, false
}

// Clone returns a deep copy of the graph (markings are shared; they are
// never mutated).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		Base:    append([]SignalInfo(nil), g.Base...),
		Active:  g.Active,
		States:  append([]State(nil), g.States...),
		Edges:   append([]Edge(nil), g.Edges...),
		Out:     make([][]int, len(g.Out)),
		In:      make([][]int, len(g.In)),
		Initial: g.Initial,
	}
	for i := range g.Out {
		c.Out[i] = append([]int(nil), g.Out[i]...)
		c.In[i] = append([]int(nil), g.In[i]...)
	}
	for _, ss := range g.StateSigs {
		c.StateSigs = append(c.StateSigs, StateSignal{Name: ss.Name, Phases: append([]Phase(nil), ss.Phases...)})
	}
	if g.Origin != nil {
		c.Origin = append([]int(nil), g.Origin...)
	}
	return c
}

// InputEdge reports whether edge e is driven by the environment (an
// input-signal transition or a dummy event), which the circuit cannot
// delay.
func (g *Graph) InputEdge(e Edge) bool {
	return e.Sig < 0 || g.Base[e.Sig].Input
}

// CheckPhaseConsistency verifies every state signal's phases obey the
// edge phase relation (including the input-edge restriction) along every
// edge; returns the violations.
func (g *Graph) CheckPhaseConsistency() []string {
	var bad []string
	for _, ss := range g.StateSigs {
		for _, e := range g.Edges {
			if !EdgeCompatibleIO(ss.Phases[e.From], ss.Phases[e.To], g.InputEdge(e)) {
				bad = append(bad, fmt.Sprintf("%s: %s→%s on edge %d→%d",
					ss.Name, ss.Phases[e.From], ss.Phases[e.To], e.From, e.To))
			}
		}
	}
	sort.Strings(bad)
	return bad
}
