package csc

import "asyncsyn/internal/sg"

// Tighten post-processes a satisfying phase assignment: it greedily
// converts excited phases (Up/Down) into stable ones wherever the
// consistency, semi-modularity, separation and USC constraints still
// hold. SAT models tend to leave excitation regions far wider than
// necessary, and every needlessly excited state multiplies the expanded
// state graph (an excited signal doubles the state's interleavings), so
// tightening directly shrinks the final state count and the derived
// logic. The columns are modified in place.
func Tighten(g *sg.Graph, conf *sg.Conflicts, cols [][]sg.Phase) {
	if len(cols) == 0 {
		return
	}
	type pairRef struct {
		other      int
		mustDiffer bool
		self       int // index of this pair for dedup (unused; clarity)
	}
	pairsOf := make(map[int][]pairRef)
	addPair := func(p sg.Pair, must bool) {
		pairsOf[p.A] = append(pairsOf[p.A], pairRef{other: p.B, mustDiffer: must})
		if p.A != p.B {
			pairsOf[p.B] = append(pairsOf[p.B], pairRef{other: p.A, mustDiffer: must})
		}
	}
	for _, p := range conf.CSC {
		addPair(p, true)
	}
	for _, p := range conf.USC {
		addPair(p, false)
	}

	stableComplement := func(a, b sg.Phase) bool {
		return (a == sg.P0 && b == sg.P1) || (a == sg.P1 && b == sg.P0)
	}
	uscBlocked := func(a, b sg.Phase) bool {
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
	pairOK := func(a, b int, mustDiffer bool) bool {
		sep := false
		for k := range cols {
			if stableComplement(cols[k][a], cols[k][b]) {
				sep = true
				break
			}
		}
		if sep {
			return true
		}
		if mustDiffer {
			return false
		}
		for k := range cols {
			if uscBlocked(cols[k][a], cols[k][b]) {
				return false
			}
		}
		return true
	}
	edgesOK := func(s, k int) bool {
		for _, ei := range g.Out(s) {
			e := g.Edges[ei]
			if !sg.EdgeCompatibleIO(cols[k][e.From], cols[k][e.To], g.InputEdge(e)) {
				return false
			}
		}
		for _, ei := range g.In(s) {
			e := g.Edges[ei]
			if !sg.EdgeCompatibleIO(cols[k][e.From], cols[k][e.To], g.InputEdge(e)) {
				return false
			}
		}
		return true
	}
	stateOK := func(s, k int) bool {
		if !edgesOK(s, k) {
			return false
		}
		for _, pr := range pairsOf[s] {
			if !pairOK(s, pr.other, pr.mustDiffer) {
				return false
			}
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for k := range cols {
			for s := range g.States {
				ph := cols[k][s]
				var try [2]sg.Phase
				switch ph {
				case sg.PUp:
					// Level-preserving choice first.
					try = [2]sg.Phase{sg.P0, sg.P1}
				case sg.PDown:
					try = [2]sg.Phase{sg.P1, sg.P0}
				default:
					continue
				}
				for _, cand := range try {
					cols[k][s] = cand
					if stateOK(s, k) {
						changed = true
						break
					}
					cols[k][s] = ph
				}
			}
		}
	}
}
