package sg

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/petri"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

// legacyReach is the map-keyed reachability that petri.ReachContext
// replaced: one cloned marking and one string key per state, an
// enabled-set slice and a cloned successor per firing. It numbers the
// states and orders the edges the way the arena exploration must.
func legacyReach(n *petri.Net, bound, maxStates int) ([]petri.Marking, []petri.ReachEdge, error) {
	if len(n.Initial) != len(n.Places) {
		return nil, nil, fmt.Errorf("petri: initial marking covers %d of %d places", len(n.Initial), len(n.Places))
	}
	var states []petri.Marking
	var edges []petri.ReachEdge
	index := make(map[string]int)
	push := func(m petri.Marking) (int, error) {
		for p, k := range m {
			if int(k) > bound {
				return 0, petri.ErrUnbounded{Place: n.Places[p].Name, Bound: bound}
			}
		}
		if i, ok := index[m.Key()]; ok {
			return i, nil
		}
		i := len(states)
		if maxStates > 0 && i >= maxStates {
			return 0, fmt.Errorf("petri: reachability exceeds %d states: %w", maxStates, synerr.ErrStateLimit)
		}
		states = append(states, m)
		index[m.Key()] = i
		return i, nil
	}
	if _, err := push(n.Initial.Clone()); err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(states); i++ {
		m := states[i]
		for _, t := range n.EnabledSet(m) {
			j, err := push(n.Fire(m, t))
			if err != nil {
				return nil, nil, err
			}
			edges = append(edges, petri.ReachEdge{From: i, To: j, Trans: t})
		}
	}
	return states, edges, nil
}

// legacyInferValues is the per-(state, signal) level inference that
// inferLevels replaced: an int8 level per state and signal (-1 unknown)
// and one work-list entry per level learned.
func legacyInferValues(g *stg.G, n int, edges []Edge, initial int) ([][]int8, error) {
	ns := len(g.Signals)
	out, in := make([][]int, n), make([][]int, n)
	for i, e := range edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	vals := make([][]int8, n)
	for i := range vals {
		vals[i] = make([]int8, ns)
		for j := range vals[i] {
			vals[i][j] = -1
		}
	}
	type seed struct {
		state, sig int
		v          int8
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
	for _, e := range edges {
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
	drain := func() error {
		for len(queue) > 0 {
			sd := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			prop := func(ei, other int) error {
				e := edges[ei]
				v := sd.v
				if e.Sig == sd.sig {
					if e.Dir != stg.Toggle {
						return nil
					}
					v = 1 - v
				}
				return set(other, sd.sig, v)
			}
			for _, ei := range out[sd.state] {
				if err := prop(ei, edges[ei].To); err != nil {
					return err
				}
			}
			for _, ei := range in[sd.state] {
				if err := prop(ei, edges[ei].From); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := drain(); err != nil {
		return nil, err
	}
	for sig := range g.Signals {
		if vals[initial][sig] == -1 {
			if err := set(initial, sig, 0); err != nil {
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

// legacyElaboration is Σ as the legacy path builds it: the markings in
// state order, the edges and the state codes.
type legacyElaboration struct {
	markings []petri.Marking
	edges    []Edge
	codes    []uint64
}

func legacyElaborate(g *stg.G, opt Options) (*legacyElaboration, error) {
	opt = opt.withDefaults()
	if len(g.Signals) > MaxSignals {
		return nil, fmt.Errorf("sg: %d signals exceed the %d-signal limit", len(g.Signals), MaxSignals)
	}
	ms, redges, err := legacyReach(g.Net, opt.Bound, opt.MaxStates)
	if err != nil {
		return nil, err
	}
	l := &legacyElaboration{markings: ms, edges: make([]Edge, len(redges))}
	for i, e := range redges {
		lab := g.Labels[e.Trans]
		l.edges[i] = Edge{From: e.From, To: e.To, Sig: lab.Sig, Dir: lab.Dir}
	}
	vals, err := legacyInferValues(g, len(ms), l.edges, 0)
	if err != nil {
		return nil, err
	}
	for _, row := range vals {
		var code uint64
		for s, v := range row {
			if v == 1 {
				code |= 1 << s
			}
		}
		l.codes = append(l.codes, code)
	}
	return l, nil
}

// conflictRE picks the signal and state out of an inconsistency error.
var conflictRE = regexp.MustCompile(`^sg: inconsistent state assignment for signal "(.*)" \(marking state (\d+) requires both 0 and 1\)$`)

// reallyConflicts reports whether the level of signal sig in state st
// is forced both ways: from st it walks the edges that carry sig's
// level (every edge but sig's rising and falling ones, a toggle edge
// flipping the parity) and collects the levels the reached rising and
// falling endpoints fix at st, or, when the walk meets none, the 0 the
// initial state is anchored at.
func reallyConflicts(edges []Edge, n, initial, sig, st int) bool {
	type node struct{ s, parity int }
	adj := make([][]int, n)
	for i, e := range edges {
		adj[e.From] = append(adj[e.From], i)
		adj[e.To] = append(adj[e.To], i)
	}
	seen := map[node]bool{{st, 0}: true}
	work := []node{{st, 0}}
	var implied [2]bool
	seeded, anchored := false, [2]bool{}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if cur.s == initial {
			anchored[cur.parity] = true
		}
		for _, ei := range adj[cur.s] {
			e := edges[ei]
			if e.Sig == sig && e.Dir != stg.Toggle {
				// The endpoint cur.s has the level the edge fixes there.
				level := 0
				if (e.From == cur.s) == (e.Dir == stg.Falling) {
					level = 1
				}
				if e.From == e.To {
					implied[0], implied[1] = true, true
				}
				implied[level^cur.parity] = true
				seeded = true
				continue
			}
			other, p := e.To, cur.parity
			if other == cur.s {
				other = e.From
			}
			if e.Sig == sig {
				p ^= 1
			}
			if nx := (node{other, p}); !seen[nx] {
				seen[nx] = true
				work = append(work, nx)
			}
		}
	}
	if !seeded {
		implied = anchored
	}
	// A node reached at both parities closes an odd toggle cycle.
	for nd := range seen {
		if seen[node{nd.s, 1 - nd.parity}] && (implied[0] || implied[1]) {
			return true
		}
	}
	return implied[0] && implied[1]
}

// checkElaboration elaborates spec both ways and fails unless they give
// the same states in the same order, the same edges in the same order
// and the same codes, or errors that match: an unbounded place and the
// state cap read alike, and an inconsistency names a signal and a state
// whose level really is forced both ways.
func checkElaboration(t *testing.T, name string, spec *stg.G, opt Options) error {
	t.Helper()
	want, werr := legacyElaborate(spec, opt)
	got, err := FromSTG(spec, opt)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, legacy %v", name, err, werr)
	}
	if err != nil {
		if m := conflictRE.FindStringSubmatch(werr.Error()); m != nil {
			g := conflictRE.FindStringSubmatch(err.Error())
			if g == nil {
				t.Fatalf("%s: error %v, legacy %v", name, err, werr)
			}
			sig, ok := spec.SignalIndex(g[1])
			st, _ := strconv.Atoi(g[2])
			d := opt.withDefaults()
			r, rerr := spec.Net.Reach(d.Bound, d.MaxStates)
			if !ok || rerr != nil || st >= r.NumStates() {
				t.Fatalf("%s: error %v names no signal and state of the graph (%v)", name, err, rerr)
			}
			edges := make([]Edge, len(r.Edges))
			for i, e := range r.Edges {
				edges[i] = Edge{From: e.From, To: e.To, Sig: spec.Labels[e.Trans].Sig, Dir: spec.Labels[e.Trans].Dir}
			}
			if !reallyConflicts(edges, r.NumStates(), 0, sig, st) {
				t.Fatalf("%s: error %v names a level that is not forced both ways", name, err)
			}
			return err
		}
		if err.Error() != werr.Error() || errors.Is(err, synerr.ErrStateLimit) != errors.Is(werr, synerr.ErrStateLimit) {
			t.Fatalf("%s: error %v, legacy %v", name, err, werr)
		}
		return err
	}
	d := opt.withDefaults()
	r, rerr := spec.Net.Reach(d.Bound, d.MaxStates)
	if rerr != nil || r.NumStates() != len(want.markings) {
		t.Fatalf("%s: reach gives %v states (%v), legacy %d", name, r.NumStates(), rerr, len(want.markings))
	}
	for i, m := range want.markings {
		if !m.Equal(r.Marking(i)) {
			t.Fatalf("%s: state %d has marking %v, legacy %v", name, i, r.Marking(i), m)
		}
	}
	codes := make([]uint64, len(got.States))
	for i, s := range got.States {
		codes[i] = s.Code
	}
	if !slices.Equal(got.Edges, want.edges) {
		t.Fatalf("%s: edges differ from legacy", name)
	}
	if !slices.Equal(codes, want.codes) {
		t.Fatalf("%s: codes differ from legacy", name)
	}
	return nil
}

// toggleSpecs are hand-written consistent nets with toggle transitions,
// which no generated or Table-1 input has.
var toggleSpecs = []string{`
.outputs a b
.graph
a+ b~
b~ a-
a- b~/2
b~/2 a+
.marking { <b~/2,a+> }
.end
`, `
.inputs r
.outputs x y
.graph
r~ x~
x~ y+
y+ r~/1
r~/1 x~/1
x~/1 y-
y- r~
.marking { <y-,r~> }
.end
`}

// bound2Spec is a two-slot buffer between a producer handshake (r) and
// a consumer handshake (a): places p and q hold up to two tokens.
const bound2Spec = `
.model bound2
.inputs r
.outputs a
.graph
r+ r-
r- r+ p
p a+
a+ a-
a- a+ q
q r+
.marking { <r-,r+> <a-,a+> q=2 }
.end
`

// TestElaborateMatchesLegacy pins the arena reachability and the
// word-parallel level inference to the legacy path on the 23 Table-1
// specifications, handshake k=1–5, stg.Random seeds 0–59 single-round
// and 0–119 TwoRounds, nets with toggle transitions and a net that
// needs Bound 2.
func TestElaborateMatchesLegacy(t *testing.T) {
	n := 0
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		checkElaboration(t, name, spec, Options{})
		n++
	}
	for k := 1; k <= 5; k++ {
		spec, err := stg.Handshakes("", k, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkElaboration(t, fmt.Sprintf("handshake k=%d", k), spec, Options{})
		n++
	}
	for _, two := range []bool{false, true} {
		seeds := int64(60)
		if two {
			seeds = 120
		}
		for seed := int64(0); seed < seeds; seed++ {
			spec, err := stg.Random(seed, stg.RandomOptions{TwoRounds: two})
			if err != nil {
				t.Fatal(err)
			}
			checkElaboration(t, fmt.Sprintf("seed %d two rounds %v", seed, two), spec, Options{})
			n++
		}
	}
	for i, src := range toggleSpecs {
		if err := checkElaboration(t, fmt.Sprintf("toggle spec %d", i), parse(t, src), Options{}); err != nil {
			t.Fatalf("toggle spec %d: %v", i, err)
		}
		n++
	}
	spec := parse(t, bound2Spec)
	if err := checkElaboration(t, "bound 2", spec, Options{Bound: 2}); err != nil {
		t.Fatalf("bound 2: %v", err)
	}
	if err := checkElaboration(t, "bound 2 at bound 1", spec, Options{}); !errors.As(err, new(petri.ErrUnbounded)) {
		t.Fatalf("bound 2 net at bound 1: %v, want ErrUnbounded", err)
	}
	t.Logf("%d specifications elaborate alike", n+1)
}

// overNet returns a one-signal net whose a+ fires from place p into the
// places post, in that order, and whose a- returns a token from place r
// to p, with the initial marking initial over places p, q1, q2 and r.
// With p listed twice among a+'s fanin, one token wraps to 255.
func overNet(twice bool, initial petri.Marking, post ...string) *stg.G {
	g := stg.New("over")
	sig, _ := g.AddSignal("a", stg.Output)
	net := g.Net
	places := map[string]petri.PlaceID{}
	for _, name := range []string{"p", "q1", "q2", "r"} {
		places[name] = net.AddPlace(name)
	}
	up := net.AddTransition("a+")
	down := net.AddTransition("a-")
	g.Labels = []stg.Label{{Sig: sig, Dir: stg.Rising}, {Sig: sig, Dir: stg.Falling}}
	net.ConnectPT(places["p"], up)
	if twice {
		net.ConnectPT(places["p"], up)
	}
	for _, name := range post {
		net.ConnectTP(up, places[name])
	}
	net.ConnectTP(up, places["r"])
	net.ConnectPT(places["r"], down)
	net.ConnectTP(down, places["p"])
	net.Initial = initial
	return g
}

// TestElaborateErrorsMatchLegacy checks the failures of both paths on
// hand-built nets: the unbounded place each names, the state cap, and
// inconsistencies found while seeding, while propagating and only
// after the initial state is anchored.
func TestElaborateErrorsMatchLegacy(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *stg.G
		bound int
		place string // "" when no place goes over the bound
	}{
		// q2 and q1 fill together, q2 listed first: the scan names q1.
		{"two places over", overNet(false, petri.Marking{2, 0, 0, 0}, "q2", "q1"), 3, "q1"},
		// p's one token wraps to 255 through the doubled fanin arc.
		{"wrapped fanin", overNet(true, petri.Marking{1, 0, 0, 0}, "q2", "q1"), 1, "p"},
		{"wrapped fanin at 254", overNet(true, petri.Marking{1, 0, 0, 0}, "q2"), 254, "p"},
		// At 255 nothing is over; a+ fires twice, an inconsistency.
		{"wrapped fanin at 255", overNet(true, petri.Marking{1, 0, 0, 0}, "q2"), 255, ""},
		{"initial over", overNet(false, petri.Marking{0, 0, 3, 2}), 1, "q2"},
	} {
		err := checkElaboration(t, c.name, c.g, Options{Bound: c.bound})
		place := ""
		if ub := (petri.ErrUnbounded{}); errors.As(err, &ub) {
			place = ub.Place
		}
		if place != c.place {
			t.Fatalf("%s: %v, want ErrUnbounded at %q", c.name, err, c.place)
		}
	}

	// The state cap.
	spec, err := stg.Handshakes("", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 2, 17} {
		if err := checkElaboration(t, fmt.Sprintf("cap %d", cap), spec, Options{MaxStates: cap}); !errors.Is(err, synerr.ErrStateLimit) {
			t.Fatalf("cap %d: %v, want ErrStateLimit", cap, err)
		}
	}

	// Inconsistent nets: a rises twice in a row (found while seeding);
	// b rises twice with only a's edges between (found while
	// propagating); a toggles three times per cycle (found after the
	// initial state is anchored, since no edge seeds a).
	for i, src := range []string{`
.outputs a b
.graph
a+ a+/2
a+/2 b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
`, `
.outputs a b c
.graph
b+ a+
a+ a-
a- b+/2
b+/2 c+
c+ b-
b- c-
c- b+
.marking { <c-,b+> }
.end
`, `
.outputs a b
.graph
a~ b+
b+ a~/2
a~/2 b-
b- a~/3
a~/3 a~
.marking { <a~/3,a~> }
.end
`} {
		err := checkElaboration(t, fmt.Sprintf("inconsistent %d", i), parse(t, src), Options{})
		if !conflictRE.MatchString(fmt.Sprint(err)) {
			t.Fatalf("inconsistent %d: %v, want an inconsistency", i, err)
		}
	}
}

// TestInferLevelsUndetermined reaches the undetermined-level error,
// which no elaborated net can: its states are all reachable, and an
// edge-connected graph fixes every signal's level through the initial
// state's anchor. On a hand-built graph with an isolated state both
// paths name the same signal and state.
func TestInferLevelsUndetermined(t *testing.T) {
	g := stg.New("isolated")
	g.AddSignal("a", stg.Output)
	g.AddSignal("b", stg.Input)
	sgr := &Graph{
		States: make([]State, 3),
		Edges:  []Edge{{From: 0, To: 1, Sig: 0, Dir: stg.Rising}, {From: 1, To: 0, Sig: 0, Dir: stg.Falling}},
	}
	sgr.IndexEdges()
	err := inferLevels(g, sgr)
	_, werr := legacyInferValues(g, 3, sgr.Edges, 0)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("error %v, legacy %v", err, werr)
	}
	if want := `sg: level of signal "a" undetermined in state 2 (signal never switches in a reachable marking)`; err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
