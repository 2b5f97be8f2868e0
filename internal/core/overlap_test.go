package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// legacyOverlapUSC is the map-based overlapUSC, verbatim apart from its
// name.
func legacyOverlapUSC(g *sg.Graph, cscPairs []sg.Pair) []sg.Pair {
	skip := make(map[sg.Pair]bool, len(cscPairs))
	for _, p := range cscPairs {
		skip[p] = true
	}
	overlap := func(a, b sg.Phase) bool {
		if a == sg.PUp || a == sg.PDown || b == sg.PUp || b == sg.PDown {
			return true
		}
		return a == b
	}
	groups := make(map[uint64][]int)
	for s := range g.States {
		c := g.States[s].Code & g.Active
		groups[c] = append(groups[c], s)
	}
	keys := make([]uint64, 0, len(groups))
	for c := range groups {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []sg.Pair
	for _, c := range keys {
		states := groups[c]
		for i := 0; i < len(states); i++ {
		pair:
			for j := i + 1; j < len(states); j++ {
				p := sg.Pair{A: states[i], B: states[j]}
				if skip[p] {
					continue
				}
				for _, ss := range g.StateSigs {
					if !overlap(ss.Phases[p.A], ss.Phases[p.B]) {
						continue pair
					}
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// residualSpecs returns the specifications the residual-stage oracles
// run on: the Table 1 benchmarks, the k=3 and k=4 handshakes and
// single-phase stg.Random seeds 0..seeds-1.
func residualSpecs(tb testing.TB, seeds int) []*stg.G {
	tb.Helper()
	var specs []*stg.G
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, k := range []int{3, 4} {
		spec, err := stg.Handshakes("", k, 2)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return append(specs, randomSpecs(tb, seeds, false)...)
}

// randomSpecs returns stg.Random seeds 0..seeds-1, single-phase or
// two-round.
func randomSpecs(tb testing.TB, seeds int, twoRounds bool) []*stg.G {
	tb.Helper()
	var specs []*stg.G
	for seed := int64(0); seed < int64(seeds); seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{TwoRounds: twoRounds})
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// moduleGraph returns spec's full state graph as the module stage
// leaves it, with the phase columns of every module's solution.
func moduleGraph(tb testing.TB, spec *stg.G, opt Options) *sg.Graph {
	tb.Helper()
	full, err := sg.FromSTG(spec, opt.StateGraph)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := runModules(context.Background(), full, spec, opt, &Result{Name: spec.Name}); err != nil {
		tb.Fatalf("%s: %v", spec.Name, err)
	}
	return full
}

// TestOverlapUSCMatchesLegacy pins overlapUSC to the map-based list, pair
// for pair in order (the order is the refinement encoding's clause
// order), on the full graph as the residual stage leaves it for every
// Table 1 benchmark, the k=3 and k=4 handshakes and random STGs, and on
// the same graph without its state-signal columns (every pair of a base
// code), with no CSC pair and with every other pair of the list given
// as CSC pairs; and at every refinement round of the expansion loop, on
// the pairs that round maps back. The random STGs are single-phase and
// two-round; only the two-round ones reach refinement.
func TestOverlapUSCMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	opt := Options{Workers: 1}.withDefaults()
	check := func(name string, g *sg.Graph, cscPairs []sg.Pair) {
		t.Helper()
		got, want := overlapUSC(g, cscPairs), legacyOverlapUSC(g, cscPairs)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: overlapUSC gave %d pairs, legacy %d\ngot  %v\nwant %v", name, len(got), len(want), got, want)
		}
	}
	var refined []string
	pairs, rounds := 0, 0
	for _, spec := range append(residualSpecs(t, 60), randomSpecs(t, 60, true)...) {
		g := moduleGraph(t, spec, opt)
		if sg.Analyze(g).N() > 0 {
			if _, err := csc.Solve(ctx, g, opt.SAT); err != nil {
				t.Fatalf("%s: residual: %v", spec.Name, err)
			}
		}
		bare := *g
		bare.StateSigs = nil
		for _, h := range []*sg.Graph{g, &bare} {
			all := legacyOverlapUSC(h, nil)
			pairs += len(all)
			check(spec.Name, h, nil)
			var every []sg.Pair
			for i := 0; i < len(all); i += 2 {
				every = append(every, all[i])
			}
			check(spec.Name, h, every)
		}
		// The expansion loop of ExpandToCSC, checking each round's list.
		for iter := 1; iter < opt.expandIters; iter++ {
			view, err := g.ExpandStream()
			if err != nil {
				t.Fatal(err)
			}
			conf := sg.AnalyzeStream(view)
			if conf.N() == 0 {
				break
			}
			r := refinementConflicts(g, view.Origin, conf)
			check(spec.Name, g, r.CSC)
			pairs += len(r.USC)
			rounds++
			if iter == 1 {
				refined = append(refined, spec.Name)
			}
			if _, err := solveRefinement(ctx, g, r, opt, iter); err != nil {
				t.Fatalf("%s: refinement round %d: %v", spec.Name, iter, err)
			}
		}
	}
	if len(refined) == 0 {
		t.Fatal("no specification reached refinement: the round lists went unchecked")
	}
	t.Logf("%d USC pairs compared, %d refinement rounds on %v", pairs, rounds, refined)
}
