package sim

import (
	"sort"

	"asyncsyn/internal/logic"
	"asyncsyn/internal/petri"
	"asyncsyn/internal/stg"
)

// This file holds the bit-sliced exhaustive runner: a breadth-first
// exploration of the closed-loop product that evaluates the gate covers
// for 64 product configurations per step. Signal levels are packed one
// configuration per bit — column i holds the level of signal i across
// the 64 states of the current batch — so one cube evaluates with a
// handful of word ANDs instead of 64 separate cover walks. The Petri-net
// side (enabled sets, firing, markings) stays scalar per lane: markings
// are sparse objects the bit-slicing cannot help with.
//
// The runner reports the same Violation values as the scalar walker —
// both stop after fully processing the first offending configuration,
// and Run canonicalizes the order either way — it only visits the
// product in breadth-first waves instead of depth-first.

// bitLit is one compiled cover literal: a signal column and its phase.
type bitLit struct {
	idx int
	neg bool
}

// bitGate is a gate compiled against the runner's signal indexing.
type bitGate struct {
	name   string
	out    int  // column of the driven signal
	inSpec bool // specification knows this signal
	dead   bool // a support input is unknown: gate never fires
	cubes  [][]bitLit
}

// evalWord computes the gate value for all lanes at once: each cube is
// the AND of its literal columns, the cover is the OR of its cubes.
func (bg *bitGate) evalWord(cols []uint64) uint64 {
	if bg.dead {
		return 0
	}
	var val uint64
	for _, cube := range bg.cubes {
		conj := ^uint64(0)
		for _, l := range cube {
			w := cols[l.idx]
			if l.neg {
				w = ^w
			}
			if conj &= w; conj == 0 {
				break
			}
		}
		val |= conj
	}
	return val
}

// compileGates lowers the circuit's covers into column programs, sorted
// by name so firing order matches the scalar walker's pendingOutputs.
func (r *runner) compileGates() []bitGate {
	gates := make([]bitGate, 0, len(r.circuit.Gates))
	for i := range r.circuit.Gates {
		g := &r.circuit.Gates[i]
		bg := bitGate{name: g.Name, out: r.sigIdx[g.Name]}
		_, bg.inSpec = r.spec.SignalIndex(g.Name)
		for _, in := range g.Inputs {
			if _, ok := r.sigIdx[in]; !ok {
				bg.dead = true // scalar eval is false on unknown support
			}
		}
		if !bg.dead {
			for _, c := range g.Cover {
				var lits []bitLit
				empty := false
				for v := 0; v < c.N() && v < len(g.Inputs); v++ {
					switch c.Var(v) {
					case logic.VTrue:
						lits = append(lits, bitLit{r.sigIdx[g.Inputs[v]], false})
					case logic.VFalse:
						lits = append(lits, bitLit{r.sigIdx[g.Inputs[v]], true})
					case logic.VEmpty:
						empty = true // covers no minterm: drop the cube
					}
				}
				if !empty {
					bg.cubes = append(bg.cubes, lits)
				}
			}
		}
		gates = append(gates, bg)
	}
	sort.Slice(gates, func(i, j int) bool { return gates[i].name < gates[j].name })
	return gates
}

// bstate is one discovered product state. Predecessor links reconstruct
// violation traces without storing a trace per state.
type bstate struct {
	levels  uint64
	marking petri.Marking
	parent  int32
	move    string
}

// bitExhaustive explores the product breadth-first, 64 states per batch.
// Requires len(r.levels) <= 64 (Run falls back to the scalar walker
// otherwise).
func (r *runner) bitExhaustive(opt Options) []Violation {
	gates := r.compileGates()
	nsig := len(r.levels)
	var init uint64
	for i, lv := range r.levels {
		if lv {
			init |= 1 << i
		}
	}

	type skey struct {
		marking string
		levels  uint64
	}
	states := []bstate{{levels: init, marking: r.marking.Clone(), parent: -1}}
	seen := map[skey]bool{{r.marking.Key(), init}: true}

	// traceOf rebuilds the (bounded) move sequence leading to state s —
	// the same suffix the scalar walker would have accumulated.
	traceOf := func(s int32) []string {
		var rev []string
		for cur := s; cur >= 0 && states[cur].parent >= 0 && len(rev) < 25; cur = states[cur].parent {
			rev = append(rev, states[cur].move)
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	var violations []Violation
	report := func(kind, sig string, s int32) {
		if len(violations) < 10 {
			violations = append(violations, Violation{Kind: kind, Signal: sig, Trace: traceOf(s)})
		}
	}

	cols := make([]uint64, nsig)
	excited := make([]uint64, len(gates))
	head, processed := 0, 0
	for head < len(states) && processed < opt.MaxDepth && len(violations) == 0 {
		b := len(states) - head
		if b > 64 {
			b = 64
		}
		if left := opt.MaxDepth - processed; b > left {
			b = left
		}
		// Transpose the batch's level words into per-signal lane columns.
		for i := range cols {
			cols[i] = 0
		}
		for j := 0; j < b; j++ {
			lv := states[head+j].levels
			for i := 0; i < nsig; i++ {
				cols[i] |= ((lv >> i) & 1) << j
			}
		}
		laneMask := ^uint64(0)
		if b < 64 {
			laneMask = 1<<b - 1
		}
		// Vectorized part: which lanes excite each gate.
		for gi := range gates {
			excited[gi] = (gates[gi].evalWord(cols) ^ cols[gates[gi].out]) & laneMask
		}
		// Scalar part: token game and successor generation per lane.
		for j := 0; j < b && len(violations) == 0; j++ {
			s := int32(head + j)
			moves := 0
			enab := r.spec.Net.EnabledSet(states[s].marking)
			for gi := range gates {
				bg := &gates[gi]
				if excited[gi]&(1<<j) == 0 {
					continue
				}
				var tid petri.TransID
				if bg.inSpec {
					ok := false
					for _, t := range enab {
						l := r.spec.Labels[t]
						if !l.IsDummy() && r.spec.Signals[l.Sig].Name == bg.name {
							tid, ok = t, true
							break
						}
					}
					if !ok {
						report("unexpected-output", bg.name, s)
						continue
					}
				}
				moves++
				nl := states[s].levels ^ (1 << bg.out)
				nm := states[s].marking
				if bg.inSpec {
					nm = r.spec.Net.Fire(states[s].marking, tid)
				}
				if k := (skey{nm.Key(), nl}); !seen[k] {
					seen[k] = true
					states = append(states, bstate{nl, nm, s, bg.name + "*"})
				}
			}
			for _, t := range enab {
				l := r.spec.Labels[t]
				if l.IsDummy() || r.spec.Signals[l.Sig].Kind != stg.Input {
					continue
				}
				moves++
				name := r.spec.Signals[l.Sig].Name
				nl := states[s].levels ^ (1 << uint(r.sigIdx[name]))
				nm := r.spec.Net.Fire(states[s].marking, t)
				if k := (skey{nm.Key(), nl}); !seen[k] {
					seen[k] = true
					states = append(states, bstate{nl, nm, s, name + "*"})
				}
			}
			if moves == 0 {
				report("deadlock", "", s)
			}
			processed++
		}
		head += b
	}
	if len(violations) == 0 && head < len(states) {
		violations = append(violations, truncated(processed, len(states)))
	}
	return violations
}
