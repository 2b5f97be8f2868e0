// Package sim provides closed-loop simulation of a synthesized circuit
// against its STG specification: the environment plays the token game on
// the STG's input transitions while the synthesized next-state functions
// drive the non-input signals, firing any output whose function value
// disagrees with its current level. The checker verifies that every
// output transition the circuit produces is one the specification
// enables, and that every enabled output is eventually produced —
// conformance in both directions, under every interleaving up to a
// bounded depth (exhaustive) or along random trajectories (Monte Carlo).
// Exhaustive exploration is bit-sliced: 64 product configurations
// advance per step, with gate covers evaluated as word-wide AND/OR over
// per-signal lane columns (see bitset.go); products wider than 64
// signals fall back to the one-configuration-at-a-time depth-first
// walker.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"asyncsyn/internal/logic"
	"asyncsyn/internal/petri"
	"asyncsyn/internal/stg"
)

// Gate is one driven signal: a cover over named support inputs.
type Gate struct {
	Name   string
	Inputs []string
	Cover  logic.Cover
}

// Circuit is the gate-level view under test.
type Circuit struct {
	Gates []Gate
}

// Violation describes a conformance failure, or an exhaustive run that
// MaxDepth cut short.
type Violation struct {
	Kind   string // "unexpected-output", "deadlock" or "truncated"
	Signal string
	Trace  []string
	// Explored and Reached count product states for a "truncated"
	// violation: the states checked before the run stopped, and those
	// checked plus those discovered but never checked.
	Explored, Reached int
}

func (v Violation) String() string {
	if v.Kind == "truncated" {
		return fmt.Sprintf("truncated after %d of %d reached product states", v.Explored, v.Reached)
	}
	return fmt.Sprintf("%s on %q after [%s]", v.Kind, v.Signal, strings.Join(v.Trace, " "))
}

// truncated is the violation of an exhaustive run that stopped at
// MaxDepth with states still unexplored: the unexplored part could hide
// any failure, so the run cannot count as conforming.
func truncated(explored, reached int) Violation {
	return Violation{Kind: "truncated", Explored: explored, Reached: reached}
}

// state is a point of the closed-loop product: the specification marking
// plus the circuit's signal levels.
type state struct {
	marking string
	levels  string
}

type runner struct {
	spec    *stg.G
	circuit *Circuit
	sigIdx  map[string]int
	gateOf  map[string]*Gate

	levels  []bool // current signal levels, indexed like spec.Signals
	marking petri.Marking
}

func newRunner(spec *stg.G, c *Circuit) (*runner, error) {
	r := &runner{
		spec:    spec,
		circuit: c,
		sigIdx:  make(map[string]int),
		gateOf:  make(map[string]*Gate),
	}
	for i, s := range spec.Signals {
		r.sigIdx[s.Name] = i
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if _, ok := r.sigIdx[g.Name]; !ok {
			// State signals invented during synthesis: register them.
			r.sigIdx[g.Name] = -1 // patched below
		}
		r.gateOf[g.Name] = g
	}
	// Re-index with state signals appended after the specification's.
	names := make([]string, 0, len(r.sigIdx))
	for _, s := range spec.Signals {
		names = append(names, s.Name)
	}
	var extra []string
	for i := range c.Gates {
		if _, ok := indexOf(spec, c.Gates[i].Name); !ok {
			extra = append(extra, c.Gates[i].Name)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)
	r.sigIdx = make(map[string]int, len(names))
	for i, n := range names {
		r.sigIdx[n] = i
	}
	r.levels = make([]bool, len(names))
	return r, nil
}

func indexOf(spec *stg.G, name string) (int, bool) { return spec.SignalIndex(name) }

// eval computes the gate output for the current levels.
func (r *runner) eval(g *Gate) bool {
	var m uint64
	for i, in := range g.Inputs {
		idx, ok := r.sigIdx[in]
		if !ok {
			return false
		}
		if r.levels[idx] {
			m |= 1 << i
		}
	}
	return r.Covers(g, m)
}

// Covers is exposed for tests.
func (r *runner) Covers(g *Gate, m uint64) bool { return g.Cover.Eval(m) }

// pendingOutputs lists non-input signals whose gate value differs from
// the current level (excited gates).
func (r *runner) pendingOutputs() []string {
	var out []string
	for i := range r.circuit.Gates {
		g := &r.circuit.Gates[i]
		if r.eval(g) != r.levels[r.sigIdx[g.Name]] {
			out = append(out, g.Name)
		}
	}
	sort.Strings(out)
	return out
}

// enabledSpecInputs lists input transitions enabled in the current
// marking.
func (r *runner) enabledSpecInputs() []petri.TransID {
	var out []petri.TransID
	for _, t := range r.spec.Net.EnabledSet(r.marking) {
		l := r.spec.Labels[t]
		if !l.IsDummy() && r.spec.Signals[l.Sig].Kind == stg.Input {
			out = append(out, t)
		}
	}
	return out
}

// specEnables reports whether the specification currently enables a
// transition of non-input signal name (in the marking).
func (r *runner) specTransition(name string) (petri.TransID, bool) {
	for _, t := range r.spec.Net.EnabledSet(r.marking) {
		l := r.spec.Labels[t]
		if !l.IsDummy() && r.spec.Signals[l.Sig].Name == name {
			return t, true
		}
	}
	return 0, false
}

func (r *runner) key() state {
	var b strings.Builder
	for _, lv := range r.levels {
		if lv {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return state{marking: r.marking.Key(), levels: b.String()}
}

func (r *runner) snapshot() ([]bool, petri.Marking) {
	return append([]bool(nil), r.levels...), r.marking.Clone()
}

func (r *runner) restore(levels []bool, m petri.Marking) {
	copy(r.levels, levels)
	r.marking = m
}

// initLevels derives the initial signal levels from the specification
// (first transition direction determines the starting value) and zeroes
// the state signals (their excitation regions are entered later).
func (r *runner) initLevels(initial map[string]bool) {
	for name, v := range initial {
		if idx, ok := r.sigIdx[name]; ok {
			r.levels[idx] = v
		}
	}
}

// Options configures a simulation run.
type Options struct {
	// MaxDepth bounds the exhaustive exploration (default 20,000 product
	// states). A run that reaches it with states left unexplored reports
	// a "truncated" violation.
	MaxDepth int
	// RandomWalks runs Monte-Carlo trajectories instead of exhaustive
	// search when positive; each walk takes RandomSteps steps. Walks are
	// deterministic in Seed: the same seed replays the same trajectories
	// and therefore the same violations (TestSeededWalksDeterministic).
	RandomWalks int
	RandomSteps int
	Seed        int64
}

// Run exhaustively explores the closed-loop product of specification and
// circuit from the initial state, checking conformance. initialLevels
// gives the starting level of every signal (from the synthesized state
// graph's initial code). When the product has more than opt.MaxDepth
// states and no failure turns up among the explored ones, the result is
// a single "truncated" violation, never an empty list.
func Run(spec *stg.G, c *Circuit, initialLevels map[string]bool, opt Options) []Violation {
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 20000
	}
	r, err := newRunner(spec, c)
	if err != nil {
		return []Violation{{Kind: "setup", Signal: err.Error()}}
	}
	r.marking = spec.Net.Initial.Clone()
	r.initLevels(initialLevels)

	if opt.RandomWalks > 0 {
		return canonicalize(r.randomWalks(opt))
	}
	if len(r.levels) > 64 {
		// The bit-sliced runner packs one bit per signal; wider products
		// take the scalar walker, whose verdicts agree with it
		// (TestBitsetMatchesScalar).
		return canonicalize(r.exhaustive(opt))
	}
	return canonicalize(r.bitExhaustive(opt))
}

// canonicalize orders violations deterministically (kind, then signal,
// then trace) so the reported set does not depend on exploration order.
func canonicalize(v []Violation) []Violation {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Kind != v[j].Kind {
			return v[i].Kind < v[j].Kind
		}
		if v[i].Signal != v[j].Signal {
			return v[i].Signal < v[j].Signal
		}
		return strings.Join(v[i].Trace, " ") < strings.Join(v[j].Trace, " ")
	})
	return v
}

func (r *runner) exhaustive(opt Options) []Violation {
	var violations []Violation
	seen := map[state]bool{}
	type frame struct {
		levels  []bool
		marking petri.Marking
		trace   []string
	}
	stack := []frame{{}}
	stack[0].levels, stack[0].marking = r.snapshot()

	report := func(kind, sig string, trace []string) {
		if len(violations) < 10 {
			violations = append(violations, Violation{Kind: kind, Signal: sig, Trace: trace})
		}
	}

	for len(stack) > 0 && len(seen) < opt.MaxDepth && len(violations) == 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.restore(f.levels, f.marking)
		k := r.key()
		if seen[k] {
			continue
		}
		seen[k] = true

		moves := 0
		// Circuit moves: every excited gate may fire. Gates of signals
		// the specification knows must be enabled by it; gates of
		// inserted state signals fire freely (they are internal to the
		// implementation and invisible to the specification).
		for _, name := range r.pendingOutputs() {
			_, inSpec := r.spec.SignalIndex(name)
			var tid petri.TransID
			if inSpec {
				var ok bool
				tid, ok = r.specTransition(name)
				if !ok {
					report("unexpected-output", name, f.trace)
					continue
				}
			}
			moves++
			lv, mk := r.snapshot()
			r.levels[r.sigIdx[name]] = !r.levels[r.sigIdx[name]]
			if inSpec {
				r.marking = r.spec.Net.Fire(r.marking, tid)
			}
			nl, nm := r.snapshot()
			stack = append(stack, frame{nl, nm, appendTrace(f.trace, name+"*")})
			r.restore(lv, mk)
		}
		// Environment moves: any enabled input transition may fire.
		for _, tid := range r.enabledSpecInputs() {
			moves++
			l := r.spec.Labels[tid]
			name := r.spec.Signals[l.Sig].Name
			lv, mk := r.snapshot()
			r.levels[r.sigIdx[name]] = !r.levels[r.sigIdx[name]]
			r.marking = r.spec.Net.Fire(r.marking, tid)
			nl, nm := r.snapshot()
			stack = append(stack, frame{nl, nm, appendTrace(f.trace, name+"*")})
			r.restore(lv, mk)
		}
		if moves == 0 {
			report("deadlock", "", f.trace)
		}
	}
	if len(violations) == 0 {
		// The stack may hold states seen since they were pushed; only
		// the others are unexplored.
		pending := map[state]bool{}
		for _, f := range stack {
			r.restore(f.levels, f.marking)
			if k := r.key(); !seen[k] {
				pending[k] = true
			}
		}
		if len(pending) > 0 {
			violations = append(violations, truncated(len(seen), len(seen)+len(pending)))
		}
	}
	return violations
}

func (r *runner) randomWalks(opt Options) []Violation {
	if opt.RandomSteps == 0 {
		opt.RandomSteps = 200
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	startLevels, startMarking := r.snapshot()
	var violations []Violation
	for w := 0; w < opt.RandomWalks && len(violations) == 0; w++ {
		r.restore(append([]bool(nil), startLevels...), startMarking.Clone())
		var trace []string
		for s := 0; s < opt.RandomSteps; s++ {
			type move struct {
				name string
				tid  petri.TransID
				out  bool
			}
			var moves []move
			for _, name := range r.pendingOutputs() {
				_, inSpec := r.spec.SignalIndex(name)
				var tid petri.TransID
				if inSpec {
					var ok bool
					tid, ok = r.specTransition(name)
					if !ok {
						violations = append(violations, Violation{Kind: "unexpected-output", Signal: name, Trace: trace})
						return violations
					}
				}
				moves = append(moves, move{name, tid, inSpec})
			}
			for _, tid := range r.enabledSpecInputs() {
				l := r.spec.Labels[tid]
				moves = append(moves, move{r.spec.Signals[l.Sig].Name, tid, true})
			}
			if len(moves) == 0 {
				violations = append(violations, Violation{Kind: "deadlock", Trace: trace})
				return violations
			}
			mv := moves[rng.Intn(len(moves))]
			r.levels[r.sigIdx[mv.name]] = !r.levels[r.sigIdx[mv.name]]
			if mv.out {
				r.marking = r.spec.Net.Fire(r.marking, mv.tid)
			}
			trace = appendTrace(trace, mv.name+"*")
		}
	}
	return violations
}

func appendTrace(t []string, s string) []string {
	out := make([]string, 0, len(t)+1)
	out = append(out, t...)
	if len(out) > 24 {
		out = out[len(out)-24:]
	}
	return append(out, s)
}
