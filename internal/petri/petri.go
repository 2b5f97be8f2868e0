// Package petri implements the Petri net kernel underlying signal
// transition graphs: places, transitions, flow relation, markings, the
// firing rule, and bounded reachability analysis.
//
// A net is a bipartite directed graph <P, T, F, M0>. The dynamic behaviour
// is captured by markings (token counts per place) and the firing of
// enabled transitions. The package is deliberately free of any
// interpretation of transitions as signal edges; that layer lives in
// package stg.
package petri

import (
	"context"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"

	"asyncsyn/internal/synerr"
)

// PlaceID and TransID index into a Net's place and transition tables.
type (
	PlaceID int
	TransID int
)

// Place is a condition holder. Places created implicitly for
// single-fanin/single-fanout arcs between transitions are flagged so
// writers can render them back as plain arcs.
type Place struct {
	Name     string
	Implicit bool // created for a transition→transition arc
	Pre      []TransID
	Post     []TransID
}

// Transition is a Petri net transition. Label carries the user-level name
// (for STGs, a signal edge such as "a+"); the kernel treats it as opaque.
type Transition struct {
	Label string
	Pre   []PlaceID
	Post  []PlaceID
}

// Net is a Petri net with an initial marking.
type Net struct {
	Name        string
	Places      []Place
	Transitions []Transition
	Initial     Marking
}

// New returns an empty net with the given name.
func New(name string) *Net {
	return &Net{Name: name}
}

// AddPlace appends a place and returns its id. Empty names get a
// generated one.
func (n *Net) AddPlace(name string) PlaceID {
	if name == "" {
		name = fmt.Sprintf("p%d", len(n.Places))
	}
	n.Places = append(n.Places, Place{Name: name})
	return PlaceID(len(n.Places) - 1)
}

// AddTransition appends a transition with the given label and returns its id.
func (n *Net) AddTransition(label string) TransID {
	n.Transitions = append(n.Transitions, Transition{Label: label})
	return TransID(len(n.Transitions) - 1)
}

// ConnectPT adds an arc place→transition.
func (n *Net) ConnectPT(p PlaceID, t TransID) {
	n.Places[p].Post = append(n.Places[p].Post, t)
	n.Transitions[t].Pre = append(n.Transitions[t].Pre, p)
}

// ConnectTP adds an arc transition→place.
func (n *Net) ConnectTP(t TransID, p PlaceID) {
	n.Transitions[t].Post = append(n.Transitions[t].Post, p)
	n.Places[p].Pre = append(n.Places[p].Pre, t)
}

// Arc adds a transition→transition arc through a fresh implicit place and
// returns that place's id.
func (n *Net) Arc(from, to TransID) PlaceID {
	p := n.AddPlace(fmt.Sprintf("<%s,%s>", n.Transitions[from].Label, n.Transitions[to].Label))
	n.Places[p].Implicit = true
	n.ConnectTP(from, p)
	n.ConnectPT(p, to)
	return p
}

// TransitionByLabel returns the first transition with the given label.
func (n *Net) TransitionByLabel(label string) (TransID, bool) {
	for i, t := range n.Transitions {
		if t.Label == label {
			return TransID(i), true
		}
	}
	return -1, false
}

// PlaceByName returns the place with the given name.
func (n *Net) PlaceByName(name string) (PlaceID, bool) {
	for i, p := range n.Places {
		if p.Name == name {
			return PlaceID(i), true
		}
	}
	return -1, false
}

// Marking assigns a token count to every place (indexed by PlaceID).
type Marking []uint8

// NewMarking returns an empty marking sized for net n.
func (n *Net) NewMarking() Marking { return make(Marking, len(n.Places)) }

// Clone returns a copy of m.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Key returns a compact string key identifying the marking, usable as a
// map key during reachability.
func (m Marking) Key() string { return string(m) }

// Equal reports whether two markings are identical.
func (m Marking) Equal(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Enabled reports whether transition t may fire in marking m: every fanin
// place holds at least one token.
func (n *Net) Enabled(m Marking, t TransID) bool {
	for _, p := range n.Transitions[t].Pre {
		if m[p] == 0 {
			return false
		}
	}
	return true
}

// EnabledSet returns the ids of all transitions enabled in m, in id order.
func (n *Net) EnabledSet(m Marking) []TransID {
	var out []TransID
	for t := range n.Transitions {
		if n.Enabled(m, TransID(t)) {
			out = append(out, TransID(t))
		}
	}
	return out
}

// Fire fires transition t in marking m and returns the successor marking.
// It panics if t is not enabled; callers check Enabled first.
func (n *Net) Fire(m Marking, t TransID) Marking {
	if !n.Enabled(m, t) {
		panic(fmt.Sprintf("petri: firing disabled transition %q", n.Transitions[t].Label))
	}
	next := m.Clone()
	for _, p := range n.Transitions[t].Pre {
		next[p]--
	}
	for _, p := range n.Transitions[t].Post {
		next[p]++
	}
	return next
}

// ErrUnbounded is returned by Reach when a place exceeds the bound.
type ErrUnbounded struct {
	Place string
	Bound int
}

func (e ErrUnbounded) Error() string {
	return fmt.Sprintf("petri: net is not %d-bounded at place %q", e.Bound, e.Place)
}

// ReachEdge is one firing in the reachability graph: from state From,
// firing Trans reaches state To (states numbered as in Reachability).
type ReachEdge struct {
	From, To int
	Trans    TransID
}

// Reachability is the explicit reachability graph of a bounded net.
// States are numbered in the order the exploration discovers them: the
// initial marking is state 0, and the successors of each state, taken
// in state order, follow in transition order.
type Reachability struct {
	// Edges lists every firing in the order of exploration: grouped by
	// source state in state order, and within a state by transition.
	Edges []ReachEdge

	markings []uint8 // every marking, stride bytes each, in state order
	stride   int     // the net's place count
	n        int
}

// NumStates returns the number of reachable markings.
func (r *Reachability) NumStates() int { return r.n }

// Marking returns the marking of state i. It aliases the graph's
// storage, so callers must not modify it.
func (r *Reachability) Marking(i int) Marking {
	return r.markings[i*r.stride : (i+1)*r.stride : (i+1)*r.stride]
}

// Reach exhaustively generates all markings reachable from the initial
// marking, failing if any place accumulates more than bound tokens or if
// more than maxStates states are generated (0 means no state cap).
func (n *Net) Reach(bound int, maxStates int) (*Reachability, error) {
	return n.ReachContext(context.Background(), bound, maxStates)
}

// ReachContext is Reach under a cancellation context, polled
// periodically during exploration so a canceled synthesis run stops
// mid-generation (with an error matching synerr.ErrCanceled) instead of
// finishing a large state space first. Exceeding maxStates yields an
// error matching synerr.ErrStateLimit.
//
// The markings live end to end in one byte arena, one place count
// (the stride) per state, behind an open-addressed hash index of state
// numbers. Each successor is written in place at the arena's tail and
// kept only if the index does not hold it yet, so the exploration makes
// no allocation per state or per firing beyond the growth of the arena,
// the index and the edge list.
func (n *Net) ReachContext(ctx context.Context, bound int, maxStates int) (*Reachability, error) {
	np := len(n.Places)
	if len(n.Initial) != np {
		return nil, fmt.Errorf("petri: initial marking covers %d of %d places", len(n.Initial), np)
	}
	for p, k := range n.Initial {
		if int(k) > bound {
			return nil, ErrUnbounded{Place: n.Places[p].Name, Bound: bound}
		}
	}
	arena := make([]uint8, np, 64*np)
	copy(arena, n.Initial)
	index := markingIndex{slots: make([]uint64, 64)}
	index.add(markingHash(arena), 0)
	var edges []ReachEdge
	count := 1
	for i := 0; i < count; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, synerr.Canceled(err)
			}
		}
		for t := range n.Transitions {
			tr := &n.Transitions[t]
			if !enabledIn(arena[i*np:(i+1)*np], tr.Pre) {
				continue
			}
			arena = append(arena, arena[i*np:(i+1)*np]...)
			next := arena[count*np:]
			for _, p := range tr.Pre {
				next[p]--
			}
			for _, p := range tr.Post {
				next[p]++
			}
			if p := overBound(next, tr, bound); p >= 0 {
				return nil, ErrUnbounded{Place: n.Places[p].Name, Bound: bound}
			}
			h := markingHash(next)
			j := index.find(h, next, arena, np)
			if j < 0 {
				if maxStates > 0 && count >= maxStates {
					return nil, fmt.Errorf("petri: reachability exceeds %d states: %w", maxStates, synerr.ErrStateLimit)
				}
				j = count
				count++
				index.add(h, j)
			} else {
				arena = arena[:count*np]
			}
			edges = append(edges, ReachEdge{From: i, To: j, Trans: TransID(t)})
		}
	}
	return &Reachability{Edges: edges, markings: arena, stride: np, n: count}, nil
}

// enabledIn reports whether every place in pre holds a token in m.
func enabledIn(m Marking, pre []PlaceID) bool {
	for _, p := range pre {
		if m[p] == 0 {
			return false
		}
	}
	return true
}

// overBound returns the lowest-numbered place of next above bound, or
// -1. next succeeds a marking within the bound, so only the places the
// firing changed, its fanin and fanout, can be above it, and the
// lowest-numbered of those is the place a scan of the whole marking
// would name. The fanin counts too: token counts are bytes, so a place
// listed twice in the fanin that holds one token wraps to 255.
func overBound(next Marking, tr *Transition, bound int) PlaceID {
	worst := PlaceID(-1)
	for _, ps := range [2][]PlaceID{tr.Pre, tr.Post} {
		for _, p := range ps {
			if int(next[p]) > bound && (worst < 0 || p < worst) {
				worst = p
			}
		}
	}
	return worst
}

// markingSeed keys the marking hash. Which seed a process draws only
// moves states between index slots, never changes their numbers.
var markingSeed = maphash.MakeSeed()

// markingIndex maps a marking to its state number by open addressing
// with linear probing over the markings in the arena. A slot holds the
// marking's 32-bit hash tag in its high half and the state number plus
// one in its low half (0 is an empty slot); the tag picks the home
// slot, so growing the table re-places every entry without touching
// the arena. The table is kept at most half full.
type markingIndex struct {
	slots []uint64
	count int
}

// markingHash returns the index tag of marking m.
func markingHash(m []uint8) uint32 {
	h := maphash.Bytes(markingSeed, m)
	return uint32(h ^ h>>32)
}

// find returns the state whose marking, stride bytes at its place in
// arena, equals m, or -1.
func (x *markingIndex) find(h uint32, m, arena []uint8, stride int) int {
	mask := uint64(len(x.slots) - 1)
	for i := uint64(h) & mask; ; i = (i + 1) & mask {
		sl := x.slots[i]
		if sl == 0 {
			return -1
		}
		if uint32(sl>>32) != h {
			continue
		}
		s := int(uint32(sl)) - 1
		if string(arena[s*stride:(s+1)*stride]) == string(m) {
			return s
		}
	}
}

// add indexes state s under tag h; s is not in the index yet.
func (x *markingIndex) add(h uint32, s int) {
	if 2*(x.count+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]uint64, 2*len(old))
		for _, sl := range old {
			if sl != 0 {
				x.put(sl)
			}
		}
	}
	x.put(uint64(h)<<32 | uint64(s+1))
	x.count++
}

func (x *markingIndex) put(sl uint64) {
	mask := uint64(len(x.slots) - 1)
	i := (sl >> 32) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = sl
}

// Validate performs structural sanity checks: every transition has at
// least one fanin and one fanout place, and every place name is unique.
func (n *Net) Validate() error {
	seen := make(map[string]bool, len(n.Places))
	for _, p := range n.Places {
		if seen[p.Name] {
			return fmt.Errorf("petri: duplicate place name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, t := range n.Transitions {
		if len(t.Pre) == 0 {
			return fmt.Errorf("petri: transition %q has no fanin place (never enabled after start)", t.Label)
		}
		if len(t.Post) == 0 {
			return fmt.Errorf("petri: transition %q has no fanout place", t.Label)
		}
	}
	return nil
}

// IsSafe reports whether the net is 1-bounded, by running reachability
// with bound 1. maxStates caps the exploration.
func (n *Net) IsSafe(maxStates int) (bool, error) {
	_, err := n.Reach(1, maxStates)
	if _, unbounded := err.(ErrUnbounded); unbounded {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Live reports whether every transition fires in at least one reachable
// marking (L1-liveness restricted to the generated graph).
func (n *Net) Live(r *Reachability) []string {
	fired := make([]bool, len(n.Transitions))
	for _, e := range r.Edges {
		fired[e.Trans] = true
	}
	var dead []string
	for i, ok := range fired {
		if !ok {
			dead = append(dead, n.Transitions[i].Label)
		}
	}
	sort.Strings(dead)
	return dead
}

// String renders a short structural summary.
func (n *Net) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net %s: %d places, %d transitions", n.Name, len(n.Places), len(n.Transitions))
	return b.String()
}
