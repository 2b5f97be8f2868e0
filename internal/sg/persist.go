package sg

import (
	"fmt"
	"sort"
)

// PersistencyViolation reports a non-semi-modular transition pair: in
// state State both Enabled and Fired were enabled, but after firing
// Fired the Enabled transition was no longer enabled — its excitation
// was withdrawn without firing, which a speed-independent circuit
// realises as a glitch.
type PersistencyViolation struct {
	State   int
	Enabled string // signal edge that lost its excitation
	Fired   string // signal edge whose firing disabled it
	Input   bool   // the disabled signal is an input (an allowed choice)
}

func (v PersistencyViolation) String() string {
	kind := "output"
	if v.Input {
		kind = "input"
	}
	return fmt.Sprintf("state %d: firing %s disables %s (%s)", v.State, v.Fired, v.Enabled, kind)
}

// CheckPersistency verifies the paper's semi-modularity constraint on
// the state graph: a transition enabled in a state must remain enabled
// after any other transition fires (until it fires itself). Disabled
// INPUT transitions are reported but flagged as allowed — they are
// environment choices (free choice between inputs), not circuit
// hazards. Disabled non-input transitions make the specification
// non-speed-independent.
func (g *Graph) CheckPersistency() []PersistencyViolation {
	var out []PersistencyViolation
	edgeName := func(e Edge) string {
		if e.Sig < 0 {
			return "ε"
		}
		return g.Base[e.Sig].Name + e.Dir.String()
	}
	for s := range g.States {
		for _, ei := range g.Out(s) {
			for _, ej := range g.Out(s) {
				if ei == ej {
					continue
				}
				a, b := g.Edges[ei], g.Edges[ej]
				if a.Sig == b.Sig {
					continue // two alternative edges of one signal
				}
				// After firing b, is an edge with a's label still enabled?
				still := false
				for _, ek := range g.Out(b.To) {
					e := g.Edges[ek]
					if e.Sig == a.Sig && e.Dir == a.Dir {
						still = true
						break
					}
				}
				if !still {
					out = append(out, PersistencyViolation{
						State:   s,
						Enabled: edgeName(a),
						Fired:   edgeName(b),
						Input:   a.Sig >= 0 && g.Base[a.Sig].Input,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		if out[i].Enabled != out[j].Enabled {
			return out[i].Enabled < out[j].Enabled
		}
		return out[i].Fired < out[j].Fired
	})
	return out
}

// OutputPersistent reports whether the graph has no non-input
// persistency violations — the precondition for speed-independent
// implementability that the paper's semi-modularity constraint
// preserves when inserting state signals.
func (g *Graph) OutputPersistent() bool {
	for _, v := range g.CheckPersistency() {
		if !v.Input {
			return false
		}
	}
	return true
}
