// Package stg implements Signal Transition Graphs: Petri nets whose
// transitions are interpreted as rising (s+) and falling (s−) edges of
// circuit signals. It provides the astg/SIS ".g" text format (parser and
// writer), a programmatic builder, and structural analyses such as the
// immediate-input (trigger) relation used by the modular partitioning
// algorithm.
package stg

import (
	"fmt"
	"sort"

	"asyncsyn/internal/petri"
)

// Kind classifies a signal.
type Kind int

const (
	// Input signals are driven by the environment.
	Input Kind = iota
	// Output signals are driven by the circuit and observable.
	Output
	// Internal signals are driven by the circuit but not observable.
	Internal
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Internal:
		return "internal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Signal is a circuit wire named in the STG.
type Signal struct {
	Name string
	Kind Kind
}

// Dir is the direction of a signal transition.
type Dir int

const (
	// Rising is a 0→1 edge (s+).
	Rising Dir = iota
	// Falling is a 1→0 edge (s−).
	Falling
	// Toggle is a direction-free edge (s~); accepted on parse, expanded by
	// the state-graph layer during value inference.
	Toggle
)

func (d Dir) String() string {
	switch d {
	case Rising:
		return "+"
	case Falling:
		return "-"
	case Toggle:
		return "~"
	}
	return "?"
}

// Label attaches STG meaning to a Petri net transition.
type Label struct {
	Sig      int // index into G.Signals; -1 for dummy transitions
	Dir      Dir
	Instance int // multiple transitions of the same edge: a+/1, a+/2, ...
}

// IsDummy reports whether the transition carries no signal edge.
func (l Label) IsDummy() bool { return l.Sig < 0 }

// G is a signal transition graph.
type G struct {
	Name    string
	Net     *petri.Net
	Signals []Signal
	Labels  []Label // parallel to Net.Transitions

	sigIndex map[string]int
}

// New returns an empty STG with the given model name.
func New(name string) *G {
	return &G{
		Name:     name,
		Net:      petri.New(name),
		sigIndex: make(map[string]int),
	}
}

// AddSignal declares a signal; redeclaring a name is an error surfaced by
// returning the existing index with ok=false.
func (g *G) AddSignal(name string, kind Kind) (int, bool) {
	if i, dup := g.sigIndex[name]; dup {
		return i, false
	}
	g.Signals = append(g.Signals, Signal{Name: name, Kind: kind})
	g.sigIndex[name] = len(g.Signals) - 1
	return len(g.Signals) - 1, true
}

// SignalIndex returns the index of a declared signal name.
func (g *G) SignalIndex(name string) (int, bool) {
	i, ok := g.sigIndex[name]
	return i, ok
}

// SignalNames returns all signal names in declaration order.
func (g *G) SignalNames() []string {
	out := make([]string, len(g.Signals))
	for i, s := range g.Signals {
		out[i] = s.Name
	}
	return out
}

// Outputs returns indices of output signals sorted by name.
func (g *G) Outputs() []int {
	var idx []int
	for i, s := range g.Signals {
		if s.Kind == Output {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return g.Signals[idx[a]].Name < g.Signals[idx[b]].Name })
	return idx
}

// AddTransition creates a labelled transition for signal edge sig/dir with
// the given instance number (0 for the unnumbered instance) and returns
// its Petri net id.
func (g *G) AddTransition(sig int, dir Dir, instance int) petri.TransID {
	label := transName(g.Signals[sig].Name, dir, instance)
	t := g.Net.AddTransition(label)
	g.Labels = append(g.Labels, Label{Sig: sig, Dir: dir, Instance: instance})
	return t
}

// AddDummy creates an unlabelled (dummy/ε) transition.
func (g *G) AddDummy(name string) petri.TransID {
	t := g.Net.AddTransition(name)
	g.Labels = append(g.Labels, Label{Sig: -1})
	return t
}

func transName(sig string, dir Dir, instance int) string {
	s := sig + dir.String()
	if instance > 0 {
		s = fmt.Sprintf("%s/%d", s, instance)
	}
	return s
}

// TransitionName renders the canonical name of transition t.
func (g *G) TransitionName(t petri.TransID) string {
	l := g.Labels[t]
	if l.IsDummy() {
		return g.Net.Transitions[t].Label
	}
	return transName(g.Signals[l.Sig].Name, l.Dir, l.Instance)
}

// TransitionsOf returns all transition ids of signal sig, in id order.
func (g *G) TransitionsOf(sig int) []petri.TransID {
	var out []petri.TransID
	for t, l := range g.Labels {
		if l.Sig == sig {
			out = append(out, petri.TransID(t))
		}
	}
	return out
}

// Validate checks STG-level well-formedness on top of the Petri net
// structural checks.
func (g *G) Validate() error {
	if err := g.Net.Validate(); err != nil {
		return err
	}
	if len(g.Labels) != len(g.Net.Transitions) {
		return fmt.Errorf("stg: %d labels for %d transitions", len(g.Labels), len(g.Net.Transitions))
	}
	used := make([]bool, len(g.Signals))
	for _, l := range g.Labels {
		if l.Sig >= 0 {
			used[l.Sig] = true
		}
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("stg: signal %q has no transitions", g.Signals[i].Name)
		}
	}
	return nil
}

// ImmediateInputs returns, for non-input signal o (by index), the set of
// signal indices whose transitions directly precede (trigger) some
// transition of o through a single place: the STG specifies a causal arc
// s* → o*. The output's own index is excluded. The result is sorted.
func (g *G) ImmediateInputs(o int) []int {
	set := make(map[int]bool)
	for t, l := range g.Labels {
		if l.Sig != o {
			continue
		}
		for _, p := range g.Net.Transitions[t].Pre {
			for _, pred := range g.Net.Places[p].Pre {
				pl := g.Labels[pred]
				if !pl.IsDummy() && pl.Sig != o {
					set[pl.Sig] = true
				}
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Stats summarises the STG structure.
type Stats struct {
	Signals     int
	Inputs      int
	Outputs     int
	Internals   int
	Transitions int
	Places      int
	Dummies     int
}

// Stat computes structural statistics.
func (g *G) Stat() Stats {
	st := Stats{Signals: len(g.Signals), Transitions: len(g.Net.Transitions), Places: len(g.Net.Places)}
	for _, s := range g.Signals {
		switch s.Kind {
		case Input:
			st.Inputs++
		case Output:
			st.Outputs++
		case Internal:
			st.Internals++
		}
	}
	for _, l := range g.Labels {
		if l.IsDummy() {
			st.Dummies++
		}
	}
	return st
}
