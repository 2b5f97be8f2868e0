package sg

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"asyncsyn/internal/metrics"
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

// State is one state graph node: the binary levels of the base signals
// (bit i = signal i), masked by the owning graph's Active mask.
type State struct {
	Code uint64
}

// Graph is a state graph: the reachable-state automaton of an STG with a
// consistent binary state assignment, possibly quotiented (modular) and
// possibly carrying inserted state signals as 4-valued phase columns.
//
// The adjacency is kept as compressed rows, one per direction: Out(s)
// and In(s) are ranges of one edge-index array, delimited by one offset
// array, built from Edges in one counting pass. Every constructor builds
// them; a graph assembled by hand calls IndexEdges once its States and
// Edges are in place.
type Graph struct {
	Name    string
	Base    []SignalInfo
	Active  uint64 // mask of base signals participating in state codes
	States  []State
	Edges   []Edge
	Initial int

	StateSigs []StateSignal

	// Origin maps each state to the state of the pre-expansion graph it
	// came from; nil unless the graph was produced by Expand.
	Origin []int

	out, in rows
}

// rows is one direction of a graph's adjacency: the edge indices of
// state s are idx[off[s]:off[s+1]], in ascending order.
type rows struct {
	off []int32 // one entry per state, plus the edge count
	idx []int32
}

// MaxSignals caps the total signal count so state codes fit in a uint64.
const MaxSignals = 58

// NumStates returns the number of states.
func (g *Graph) NumStates() int { return len(g.States) }

// Out returns the indices of the edges leaving state s, ascending. The
// slice aliases the graph's adjacency, so callers must not modify it.
func (g *Graph) Out(s int) []int32 { return g.out.idx[g.out.off[s]:g.out.off[s+1]] }

// In returns the indices of the edges entering state s, ascending. The
// slice aliases the graph's adjacency, so callers must not modify it.
func (g *Graph) In(s int) []int32 { return g.in.idx[g.in.off[s]:g.in.off[s+1]] }

// IndexEdges (re)builds the adjacency rows of Out and In from States
// and Edges: one pass counts the degrees, and a reverse pass over the
// edges fills each row from its end, so edge indices come out
// ascending. All four arrays share one allocation.
func (g *Graph) IndexEdges() {
	n, m := len(g.States), len(g.Edges)
	buf := make([]int32, 2*(n+1)+2*m)
	outOff, inOff := buf[:n+1], buf[n+1:2*(n+1)]
	outIdx, inIdx := buf[2*(n+1):2*(n+1)+m], buf[2*(n+1)+m:]
	for _, e := range g.Edges {
		outOff[e.From]++
		inOff[e.To]++
	}
	// Running sums leave off[s] at the end of row s; the fill below
	// walks it back to the row's start.
	var so, si int32
	for s := 0; s < n; s++ {
		so += outOff[s]
		outOff[s] = so
		si += inOff[s]
		inOff[s] = si
	}
	outOff[n], inOff[n] = int32(m), int32(m)
	for ei := m - 1; ei >= 0; ei-- {
		e := &g.Edges[ei]
		outOff[e.From]--
		outIdx[outOff[e.From]] = int32(ei)
		inOff[e.To]--
		inIdx[inOff[e.To]] = int32(ei)
	}
	g.out = rows{off: outOff, idx: outIdx}
	g.in = rows{off: inOff, idx: inIdx}
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
	for _, ei := range g.Out(s) {
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
	for _, ei := range g.Out(s) {
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
	metrics.From(ctx).Add(metrics.SGStates, int64(r.NumStates()))

	sgr := &Graph{
		Name:    g.Name,
		Base:    make([]SignalInfo, len(g.Signals)),
		Active:  (uint64(1) << len(g.Signals)) - 1,
		States:  make([]State, r.NumStates()),
		Edges:   make([]Edge, len(r.Edges)),
		Initial: 0,
	}
	for i, s := range g.Signals {
		sgr.Base[i] = SignalInfo{Name: s.Name, Input: s.Kind == stg.Input}
	}
	for i, e := range r.Edges {
		l := g.Labels[e.Trans]
		sgr.Edges[i] = Edge{From: e.From, To: e.To, Sig: l.Sig, Dir: l.Dir}
	}
	sgr.IndexEdges()
	if err := inferLevels(g, sgr); err != nil {
		return nil, err
	}
	return sgr, nil
}

// queued flags a state on inferLevels' work list. It lies above every
// signal bit (MaxSignals < 63), in the state's known word.
const queued = uint64(1) << 63

// inferLevels writes every state's binary level of every signal into
// its Code. Levels propagate along edges: an edge for signal s fixes
// s's level on both endpoints (0→1 for rising, 1→0 for falling,
// complement for toggle); every other edge preserves s's level.
// Conflicts mean the STG has no consistent state assignment.
//
// All signals propagate at once, a word per state: known[s] holds the
// signals whose level in s is fixed and Code their levels. A state on
// the work list pushes its known levels across each of its edges, in
// both directions, and a neighbour that learns a level joins the list.
// The fixed point does not depend on the order of the list, so the
// codes, and the first undetermined level in state order, are the same
// as any other propagation order gives.
func inferLevels(g *stg.G, sgr *Graph) error {
	n := len(sgr.States)
	known := make([]uint64, n)
	work := make([]int32, 0, n)
	push := func(st int) {
		if known[st]&queued == 0 {
			known[st] |= queued
			work = append(work, int32(st))
		}
	}
	inconsistent := func(st int, bad uint64) error {
		return fmt.Errorf("sg: inconsistent state assignment for signal %q (marking state %d requires both 0 and 1)",
			g.Signals[bits.TrailingZeros64(bad)].Name, st)
	}
	// merge gives state st the levels vals of the signals in mask.
	merge := func(st int, mask, vals uint64) error {
		code := &sgr.States[st].Code
		if bad := known[st] & mask & (*code ^ vals); bad != 0 {
			return inconsistent(st, bad)
		}
		if learned := mask &^ known[st]; learned != 0 {
			known[st] |= learned
			*code |= vals & learned
			push(st)
		}
		return nil
	}

	// Seed from every non-toggle signal edge, in edge order.
	for _, e := range sgr.Edges {
		if e.Sig < 0 || e.Dir == stg.Toggle {
			continue
		}
		bit := uint64(1) << e.Sig
		before, after := uint64(0), bit
		if e.Dir == stg.Falling {
			before, after = bit, 0
		}
		if err := merge(e.From, bit, before); err != nil {
			return err
		}
		if err := merge(e.To, bit, after); err != nil {
			return err
		}
	}

	// Propagate: an edge carries every known level across it but its own
	// signal's, which a rising or falling edge has seeded on both
	// endpoints and a toggle edge complements.
	drain := func() error {
		for len(work) > 0 {
			st := int(work[len(work)-1])
			work = work[:len(work)-1]
			known[st] &^= queued
			mask, vals := known[st], sgr.States[st].Code
			across := func(e Edge, other int) error {
				m, v := mask, vals
				if e.Sig >= 0 {
					if bit := uint64(1) << e.Sig; e.Dir == stg.Toggle {
						v ^= bit
					} else {
						m &^= bit
					}
				}
				return merge(other, m, v&m)
			}
			for _, ei := range sgr.Out(st) {
				if err := across(sgr.Edges[ei], sgr.Edges[ei].To); err != nil {
					return err
				}
			}
			for _, ei := range sgr.In(st) {
				if err := across(sgr.Edges[ei], sgr.Edges[ei].From); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := drain(); err != nil {
		return err
	}

	// A signal with only toggle transitions has consistent parity but no
	// absolute level; anchor it at 0 in the initial state (the usual
	// astg convention) and re-propagate.
	all := uint64(1)<<len(g.Signals) - 1
	if err := merge(sgr.Initial, all&^known[sgr.Initial], 0); err != nil {
		return err
	}
	if err := drain(); err != nil {
		return err
	}

	for st, k := range known {
		if k != all {
			return fmt.Errorf("sg: level of signal %q undetermined in state %d (signal never switches in a reachable marking)",
				g.Signals[bits.TrailingZeros64(all&^k)].Name, st)
		}
	}
	return nil
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

// Clone returns a deep copy of the graph. A state is its code alone, so
// nothing is shared with g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		Base:    append([]SignalInfo(nil), g.Base...),
		Active:  g.Active,
		States:  append([]State(nil), g.States...),
		Edges:   append([]Edge(nil), g.Edges...),
		Initial: g.Initial,
	}
	c.IndexEdges()
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
