package csc

import (
	"sort"

	"asyncsyn/internal/sg"
)

// Redundant reports whether state-signal column k of g can be dropped:
// with the remaining columns, every pair of states sharing a full code
// must still satisfy the CSC/USC conditions — conflicting pairs stay
// separated by a stable complementary value of some other signal, and
// non-conflicting pairs avoid the blocked excitation pairs. The
// integration of per-output modular solutions often leaves such
// redundancy (the paper notes the method is not signal-optimal).
func Redundant(g *sg.Graph, k int) bool {
	if k < 0 || k >= len(g.StateSigs) {
		return false
	}
	return newPruner(g).redundant(k)
}

// Prune removes redundant state-signal columns (latest insertions first)
// and returns the names of the removed signals.
func Prune(g *sg.Graph) []string {
	if len(g.StateSigs) == 0 {
		return nil
	}
	p := newPruner(g)
	var removed []string
	for k := len(g.StateSigs) - 1; k >= 0; k-- {
		if p.redundant(k) {
			removed = append(removed, g.StateSigs[k].Name)
			g.StateSigs = append(g.StateSigs[:k], g.StateSigs[k+1:]...)
		}
	}
	sort.Strings(removed)
	return removed
}

// pruner holds what every column's redundancy test of one graph
// shares: the enabled non-input set of each state, which removing a
// column does not change, and the code buffer.
type pruner struct {
	g       *sg.Graph
	enabled []uint64
	codes   []uint64
}

func newPruner(g *sg.Graph) *pruner {
	return &pruner{g: g, enabled: g.EnabledNonInputsAll(nil), codes: make([]uint64, len(g.States))}
}

// redundant is Redundant on p's graph.
func (p *pruner) redundant(k int) bool {
	g := p.g
	// Group states by their full code without column k: the base code
	// under the active mask, then the levels of the other columns.
	codes := p.codes
	for s := range g.States {
		codes[s] = g.States[s].Code & g.Active
	}
	bit := uint(len(g.Base))
	for j, ss := range g.StateSigs {
		if j == k {
			continue
		}
		for s, ph := range ss.Phases {
			if ph.Level() == 1 {
				codes[s] |= 1 << bit
			}
		}
		bit++
	}
	_, groups := sg.GroupCodes(codes)
	for _, states := range groups {
		for i, a := range states {
		pair:
			for _, b := range states[i+1:] {
				for j, ss := range g.StateSigs {
					if j != k && stableComplement(ss.Phases[a], ss.Phases[b]) {
						continue pair
					}
				}
				if p.enabled[a] != p.enabled[b] {
					return false // a CSC conflict would reappear
				}
				for j, ss := range g.StateSigs {
					if j != k && blocked(ss.Phases[a], ss.Phases[b]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// stableComplement reports whether a and b are complementary stable
// levels, which separate two states.
func stableComplement(a, b sg.Phase) bool {
	return (a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0)
}

// blocked reports whether a and b are the excitation pairs that two
// states of one code must not carry.
func blocked(a, b sg.Phase) bool {
	switch {
	case a == sg.P0 && b == sg.PUp, a == sg.PUp && b == sg.P0:
		return true
	case a == sg.P1 && b == sg.PDown, a == sg.PDown && b == sg.P1:
		return true
	case a == sg.PUp && b == sg.PDown, a == sg.PDown && b == sg.PUp:
		return true
	}
	return false
}
