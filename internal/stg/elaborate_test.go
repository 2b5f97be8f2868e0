package stg_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"asyncsyn/internal/petri"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

// fuzzMaxStates caps both elaborations of a fuzzed net.
const fuzzMaxStates = 4096

// checkElaboratesAlike elaborates a parsed net with sg.FromSTG and with
// the legacy path (map-keyed reachability, per-(state, signal) level
// inference) and fails unless both give the same states, edges and
// codes, or the same error. An inconsistency may name another signal
// and state on each side, since the two propagate in different orders;
// internal/sg's TestElaborateErrorsMatchLegacy checks that the named
// level really is forced both ways.
//
// The legacy path is a copy of internal/sg's test oracle
// (legacyElaborate), which a test of this package cannot import.
func checkElaboratesAlike(t *testing.T, g *stg.G) {
	t.Helper()
	opt := sg.Options{MaxStates: fuzzMaxStates}
	got, err := sg.FromSTG(g, opt)
	edges, codes, werr := legacyElaborate(g, fuzzMaxStates)
	if (err == nil) != (werr == nil) {
		t.Fatalf("error %v, legacy %v", err, werr)
	}
	if err != nil {
		const inconsistent = "sg: inconsistent state assignment for signal "
		if strings.HasPrefix(werr.Error(), inconsistent) && strings.HasPrefix(err.Error(), inconsistent) {
			return
		}
		if err.Error() != werr.Error() {
			t.Fatalf("error %v, legacy %v", err, werr)
		}
		return
	}
	if !slices.Equal(got.Edges, edges) {
		t.Fatalf("edges differ from legacy")
	}
	if len(got.States) != len(codes) {
		t.Fatalf("%d states, legacy %d", len(got.States), len(codes))
	}
	for s, c := range codes {
		if got.States[s].Code != c {
			t.Fatalf("state %d has code %b, legacy %b", s, got.States[s].Code, c)
		}
	}
}

// legacyElaborate returns Σ's edges and state codes as the legacy path
// computes them, at the default token bound.
func legacyElaborate(g *stg.G, maxStates int) ([]sg.Edge, []uint64, error) {
	if len(g.Signals) > sg.MaxSignals {
		return nil, nil, fmt.Errorf("sg: %d signals exceed the %d-signal limit", len(g.Signals), sg.MaxSignals)
	}
	n := g.Net
	if len(n.Initial) != len(n.Places) {
		return nil, nil, fmt.Errorf("petri: initial marking covers %d of %d places", len(n.Initial), len(n.Places))
	}
	bound := sg.DefaultTokenBound
	var states []petri.Marking
	var edges []sg.Edge
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
		if i >= maxStates {
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
			l := g.Labels[t]
			edges = append(edges, sg.Edge{From: i, To: j, Sig: l.Sig, Dir: l.Dir})
		}
	}

	ns := len(g.Signals)
	out, in := make([][]int, len(states)), make([][]int, len(states))
	for i, e := range edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	vals := make([][]int8, len(states))
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
			return nil, nil, err
		}
		if err := set(e.To, e.Sig, after); err != nil {
			return nil, nil, err
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
		return nil, nil, err
	}
	for sig := range g.Signals {
		if vals[0][sig] == -1 {
			if err := set(0, sig, 0); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := drain(); err != nil {
		return nil, nil, err
	}
	codes := make([]uint64, len(states))
	for st := range vals {
		for sig, v := range vals[st] {
			switch v {
			case -1:
				return nil, nil, fmt.Errorf("sg: level of signal %q undetermined in state %d (signal never switches in a reachable marking)",
					g.Signals[sig].Name, st)
			case 1:
				codes[st] |= 1 << sig
			}
		}
	}
	return edges, codes, nil
}
