package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// legacyDetermineInputSet is DetermineInputSet as it was when every
// candidate removal built its quotient graph and listed its conflict
// pairs; the oracle the counting version is pinned against. The code is
// unchanged but for trial, which (when non-nil) sees every graph and
// mask the search quotients, just before it does.
func legacyDetermineInputSet(g *sg.Graph, spec *stg.G, o int, trial func(gw *sg.Graph, silenced uint64)) InputSet {
	is := InputSet{Output: o}

	immediate := make(map[int]bool)
	if spec != nil {
		if si, ok := spec.SignalIndex(g.Base[o].Name); ok {
			for _, t := range spec.ImmediateInputs(si) {
				name := spec.Signals[t].Name
				if gi, ok := g.SignalIndex(name); ok {
					immediate[gi] = true
				}
			}
		}
	}

	// Baseline conflict stats on the full graph (no merging).
	nCSC, lb := legacyOutputStats(g, nil, o)

	// Candidate removal order: by signal name, inputs considered before
	// non-inputs so environment signals are shed first when possible.
	var candidates []int
	for i := range g.Base {
		if i == o || immediate[i] || g.Active&(1<<i) == 0 {
			continue
		}
		if !g.Base[i].Input {
			continue
		}
		candidates = append(candidates, i)
	}
	sort.Slice(candidates, func(a, b int) bool {
		ca, cb := candidates[a], candidates[b]
		if g.Base[ca].Input != g.Base[cb].Input {
			return g.Base[ca].Input
		}
		return g.Base[ca].Name < g.Base[cb].Name
	})

	var silenced uint64
	for _, si := range candidates {
		try := silenced | 1<<si
		if trial != nil {
			trial(g, try)
		}
		merged, ok := g.Quotient(try)
		if !ok {
			continue // phase join failed: si carries a state-signal edge
		}
		n2, lb2 := legacyOutputStatsMerged(merged, o)
		if n2 < 0 {
			continue // removal created a self-conflicting class
		}
		if n2 <= nCSC && lb2 <= lb {
			silenced = try
			nCSC, lb = n2, lb2
		}
	}
	is.Silenced = silenced
	is.Mask = g.Active &^ silenced

	// State-signal pruning: keep only the inserted signals whose removal
	// would increase the modular conflict count.
	kept := make([]int, 0, len(g.StateSigs))
	for k := range g.StateSigs {
		kept = append(kept, k)
	}
	for k := range g.StateSigs {
		without := make([]int, 0, len(kept))
		for _, j := range kept {
			if j != k {
				without = append(without, j)
			}
		}
		gw := withStateSigs(g, without)
		if trial != nil {
			trial(gw, silenced)
		}
		merged, ok := gw.Quotient(silenced)
		if !ok {
			continue
		}
		n2, lb2 := legacyOutputStatsMerged(merged, o)
		if n2 >= 0 && n2 <= nCSC && lb2 <= lb {
			kept = without
			nCSC, lb = n2, lb2
		}
	}
	is.StateSigs = kept
	is.Ncsc, is.Lb = nCSC, lb
	return is
}

// legacyOutputStats computes (N_csc, L_b) for output o directly on graph g.
func legacyOutputStats(g *sg.Graph, _ []int, o int) (int, int) {
	conf := sg.OutputConflicts(g, func(s int) (bool, bool) {
		return g.ImpliedValue(s, o) == 0, g.ImpliedValue(s, o) == 1
	})
	return conf.N(), conf.LowerBound
}

// legacyOutputStatsMerged computes (N_csc, L_b) for output o on a merged graph;
// it returns N_csc = -1 when some merged class implies both values of o
// (a self-conflict that no state-signal assignment can repair).
func legacyOutputStatsMerged(m *sg.Merged, o int) (int, int) {
	conf := sg.OutputConflicts(m.Graph, m.ImpliedOf(o))
	for _, p := range conf.CSC {
		if p.A == p.B {
			return -1, 0
		}
	}
	return conf.N(), conf.LowerBound
}

// corpusGraph is one graph the input-set oracles run on: a spec's
// initial state graph, or that graph as it stood after one module of the
// module stage.
type corpusGraph struct {
	name string
	spec *stg.G
	g    *sg.Graph
}

// withDummy returns spec with a dummy transition spliced into every arc
// from a transition to an input transition (r or a branch's t signal),
// some of them concurrent with other branches. A dummy in front of an
// input transition leaves every output's implied values alone, so the
// module stage still solves; one in front of an output transition would
// merge states implying both of its values.
func withDummy(t *testing.T, spec *stg.G) *stg.G {
	t.Helper()
	src := stg.Format(spec)
	var out []string
	dummies := 0
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(f[0], ".") && (f[1][0] == 'r' || f[1][0] == 't') &&
			!strings.Contains(src, "<"+f[0]+","+f[1]+">") { // a marked place stays put
			d := fmt.Sprintf("eps%d", dummies)
			dummies++
			out = append(out, f[0]+" "+d, d+" "+f[1])
			continue
		}
		out = append(out, line)
	}
	if dummies == 0 {
		t.Fatalf("%s: no arc to splice a dummy into", spec.Name)
	}
	src = strings.Join(out, "\n")
	var decl []string
	for i := 0; i < dummies; i++ {
		decl = append(decl, fmt.Sprintf("eps%d", i))
	}
	src = strings.Replace(src, "\n.graph", "\n.dummy "+strings.Join(decl, " ")+"\n.graph", 1)
	d, err := stg.ParseString(src)
	if err != nil {
		t.Fatalf("%s with dummies: %v", spec.Name, err)
	}
	d.Name = spec.Name + "-dummy"
	return d
}

// inputSetCorpus builds the oracle inputs: every Table-1 spec, handshake
// k=3 and k=4, seeded random nets of one and two rounds (mixing the
// pulse, handshake and double-pulse branch classes), free-choice nets
// and random nets carrying a dummy transition. Each contributes its
// initial graph and its graph after every module of the module stage,
// so the trials also merge the phases of inserted state signals and
// prune them.
func inputSetCorpus(t *testing.T) []corpusGraph {
	t.Helper()
	var specs []*stg.G
	for _, name := range bench.Available() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for k := 3; k <= 4; k++ {
		spec, err := stg.Handshakes("", k, 2)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for k := 2; k <= 3; k++ {
		spec, err := stg.Choice("", k)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for seed := int64(1); seed <= 12; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{TwoRounds: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
		if seed <= 4 {
			specs = append(specs, withDummy(t, spec))
		}
	}

	var out []corpusGraph
	for _, spec := range specs {
		full, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res := &Result{Name: spec.Name}
		if _, _, err := runModules(context.Background(), full, spec, Options{Workers: 1}.withDefaults(), res); err != nil {
			t.Logf("%s: module stage stopped: %v", spec.Name, err)
		}
		// Modules only append state-signal columns, so the graph after
		// module i is the final one cut back to the columns inserted so
		// far.
		inserted := 0
		out = append(out, corpusGraph{spec.Name + "/initial", spec, withStateSigs(full, nil)})
		for _, rep := range res.Outputs {
			inserted += rep.NewSignals
			cols := make([]int, inserted)
			for k := range cols {
				cols[k] = k
			}
			name := fmt.Sprintf("%s/after-%s", spec.Name, rep.Output)
			out = append(out, corpusGraph{name, spec, withStateSigs(full, cols)})
		}
		if inserted != len(full.StateSigs) {
			t.Fatalf("%s: modules report %d new signals, graph has %d", spec.Name, inserted, len(full.StateSigs))
		}
	}
	return out
}

// TestQuotientCountsMatchesQuotient pins the counting evaluator to what
// it replaces: on every graph and mask input-set determination tries,
// QuotientCounts must agree with Quotient's join verdict and, when the
// joins hold, with the (N_csc, L_b) that OutputConflicts reports on the
// built quotient, a self pair meaning -1. OutputCounts must agree with
// OutputConflicts on the unmerged graph.
//
// Input-set determination only silences input signals, and across input
// edges a state signal can become excited but never fire, so its trials
// never fail a join and seldom merge a self-conflict. Each output is
// therefore also tried with every single other signal silenced and with
// all of them silenced.
func TestQuotientCountsMatchesQuotient(t *testing.T) {
	var trials, failedJoins, selfConflicts, conflicted, pruning, dummyTrials int
	for _, c := range inputSetCorpus(t) {
		hasDummy := false
		for _, e := range c.g.Edges {
			hasDummy = hasDummy || e.Sig < 0
		}
		for _, o := range nonInputsByName(c.g) {
			oname := c.g.Base[o].Name
			implied1 := impliedOnes(c.g, o)
			n, lb := c.g.OutputCounts(implied1)
			wn, wlb := legacyOutputStats(c.g, nil, o)
			if n != wn || lb != wlb {
				t.Fatalf("%s/%s: OutputCounts = (%d, %d), OutputConflicts = (%d, %d)", c.name, oname, n, lb, wn, wlb)
			}
			check := func(gw *sg.Graph, silenced uint64) {
				trials++
				if len(gw.StateSigs) < len(c.g.StateSigs) {
					pruning++
				}
				if hasDummy {
					dummyTrials++
				}
				n, lb, ok := gw.QuotientCounts(silenced, implied1)
				merged, wok := gw.Quotient(silenced)
				if ok != wok {
					t.Fatalf("%s/%s mask %#x, %d state signals: join verdict %v, Quotient's %v",
						c.name, oname, silenced, len(gw.StateSigs), ok, wok)
				}
				if !ok {
					failedJoins++
					return
				}
				wn, wlb := legacyOutputStatsMerged(merged, o)
				switch {
				case wn < 0:
					selfConflicts++
				case wn > 0:
					conflicted++
				}
				if n != wn || lb != wlb {
					t.Fatalf("%s/%s mask %#x, %d state signals: QuotientCounts = (%d, %d), Quotient+OutputConflicts = (%d, %d)",
						c.name, oname, silenced, len(gw.StateSigs), n, lb, wn, wlb)
				}
			}
			legacyDetermineInputSet(c.g, c.spec, o, check)
			others := c.g.Active &^ (1 << o)
			for i := range c.g.Base {
				if others&(1<<i) != 0 {
					check(c.g, 1<<i)
				}
			}
			check(c.g, others)
		}
	}
	t.Logf("%d trials: %d failed joins, %d self-conflicts, %d with conflicts, %d pruning, %d on dummy-bearing graphs",
		trials, failedJoins, selfConflicts, conflicted, pruning, dummyTrials)
	for what, n := range map[string]int{
		"failed joins": failedJoins, "self-conflicts": selfConflicts, "conflicted quotients": conflicted,
		"pruning trials": pruning, "dummy-bearing trials": dummyTrials,
	} {
		if n == 0 {
			t.Errorf("the corpus exercised no %s", what)
		}
	}
}

// TestDetermineInputSetMatchesLegacy: counting instead of building
// quotients changes no input set, on the same graphs.
func TestDetermineInputSetMatchesLegacy(t *testing.T) {
	for _, c := range inputSetCorpus(t) {
		for _, o := range nonInputsByName(c.g) {
			got := DetermineInputSet(c.g, c.spec, o)
			want := legacyDetermineInputSet(c.g, c.spec, o, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: DetermineInputSet = %+v, legacy = %+v", c.name, c.g.Base[o].Name, got, want)
			}
		}
	}
}

// BenchmarkDetermineInputSet measures input-set determination for every
// non-input output of handshake k=4, on a graph built in setup.
// DetermineInputSet runs sequentially; cmd/allocheck gates its
// allocs/op, which a return to building a quotient graph per candidate
// removal would multiply about a hundredfold.
func BenchmarkDetermineInputSet(b *testing.B) {
	spec, err := stg.Handshakes("", 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	outs := nonInputsByName(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range outs {
			DetermineInputSet(g, spec, o)
		}
	}
}
