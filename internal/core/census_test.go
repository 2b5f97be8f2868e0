package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/lavagno"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

// censusInputs lists the mechanism census corpus: the 23 Table-1 rows,
// handshake k=1–5, and the random nets TestFuzzSynthesize draws
// (stg.Random seeds 0–59 single-round and 0–119 two-round), fed to
// Synthesize as generated, not formatted and parsed again.
func censusInputs(t *testing.T) (names []string, specs []*stg.G) {
	t.Helper()
	add := func(name string, spec *stg.G, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, specs = append(names, name), append(specs, spec)
	}
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		add(name, spec, err)
	}
	for k := 1; k <= 5; k++ {
		spec, err := stg.Handshakes("", k, 2)
		add(fmt.Sprintf("handshake-k%d", k), spec, err)
	}
	for seed := int64(0); seed < 60; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		add(fmt.Sprintf("random-%d", seed), spec, err)
	}
	for seed := int64(0); seed < 120; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{TwoRounds: true})
		add(fmt.Sprintf("tworounds-%d", seed), spec, err)
	}
	return names, specs
}

// TestMechanismCensus pins which inputs take each insertion mechanism
// of the modular method, read from what Result and the stage counters
// report: a module solved by the joint formula at its lower bound L_b or
// at L_b+1, or by the greedy tail of the Figure-4 loop; the residual
// whole-graph solve; expansion refinement and its greedy tail. A mechanism that fires on no input
// here has no measured use, and a change that moves an input from one
// path to another shows up as a census change, not only as a digest
// change.
func TestMechanismCensus(t *testing.T) {
	names, specs := censusInputs(t)
	if len(names) != 208 {
		t.Fatalf("%d census inputs, want 208", len(names))
	}
	var jointLb, jointLb1 int
	var greedy, residual, refined, refinedGreedy []string
	for i, spec := range specs {
		name := names[i]
		ctx := metrics.With(context.Background(), metrics.New())
		res, err := Synthesize(ctx, spec, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		paths := map[string]bool{}
		for _, o := range res.Outputs {
			if o.Ncsc == 0 {
				continue
			}
			// Figure 4's joint loop tries m = max(L_b, 1) and one above
			// (at most maxSignals); any later formula is the greedy tail.
			m0 := max(o.Lb, 1)
			joint := min(m0+1, maxSignals) - m0 + 1
			fs := o.Formulas
			switch {
			case joint >= 1 && len(fs) >= 1 && fs[0].Status == sat.Sat:
				paths["jointLb"] = true
			case joint == 2 && len(fs) >= 2 && fs[0].Status == sat.Unsat && fs[1].Status == sat.Sat:
				paths["jointLb1"] = true
			default:
				paths["greedy"] = true
			}
		}
		var residualFormulas int64
		for _, st := range res.Stages {
			if st.Name == "residual" {
				residualFormulas = st.Counters["sat_formulas"]
			}
		}
		if residualFormulas > 0 {
			residual = append(residual, name)
		}
		if res.ExpandIters > 1 {
			refined = append(refined, name)
			// One joint m=1 formula per refinement round, unless the
			// round fell through to the greedy tail.
			if len(res.Fallback)-int(residualFormulas) > res.ExpandIters-1 {
				refinedGreedy = append(refinedGreedy, name)
			}
		}
		if paths["jointLb"] {
			jointLb++
		}
		if paths["jointLb1"] {
			jointLb1++
		}
		if paths["greedy"] {
			greedy = append(greedy, name)
		}
	}
	check := func(mechanism string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, want %v", mechanism, got, want)
		}
	}
	check("inputs with a module solved jointly at L_b", jointLb, 175)
	check("inputs with a module solved jointly at L_b+1", jointLb1, 98)
	check("inputs with a module solved by greedy insertion", greedy, []string{"sbuf-send-pkt2"})
	check("inputs with a residual solve", residual, []string(nil))
	check("inputs refined after expansion", refined, []string{
		"mr0", "pe-rcv-ifc-fc", "sbuf-send-pkt2",
		"tworounds-9", "tworounds-21", "tworounds-27", "tworounds-38", "tworounds-42", "tworounds-57",
		"tworounds-58", "tworounds-59", "tworounds-71", "tworounds-74", "tworounds-77", "tworounds-82",
		"tworounds-86", "tworounds-106", "tworounds-107", "tworounds-108",
	})
	check("inputs whose refinement needed the greedy tail", refinedGreedy, []string(nil))
}

// TestLavagnoCensus pins which inputs take each path of the
// Lavagno-style baseline as the facade composes it (lavagno.Solve, then
// ExpandToCSC) at default options, over the census corpus without
// handshake k=4–5: the csc stage's abort at the backtrack budget or the
// signal cap, expansion refinement and its greedy tail, and refinement
// that ends with conflicts left.
func TestLavagnoCensus(t *testing.T) {
	ctx := context.Background()
	names, specs := censusInputs(t)
	var aborted, refined, refinedGreedy, persist []string
	inputs := 0
	for i, spec := range specs {
		name := names[i]
		if name == "handshake-k4" || name == "handshake-k5" {
			continue
		}
		inputs++
		full, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := lavagno.Solve(ctx, full, csc.SolveOptions{}); err != nil {
			if !errors.Is(err, synerr.ErrBacktrackLimit) {
				t.Fatalf("%s: csc stage: %v", name, err)
			}
			aborted = append(aborted, name)
			continue
		}
		_, iters, fallback, err := ExpandToCSC(ctx, full, Options{})
		if err != nil {
			if !errors.Is(err, synerr.ErrConflictsPersist) {
				t.Fatalf("%s: expand stage: %v", name, err)
			}
			persist = append(persist, name)
		}
		if len(fallback) > 0 {
			refined = append(refined, name)
		}
		// One joint m=1 formula per refinement round, unless the round
		// fell through to the greedy tail.
		if len(fallback) > iters-1 {
			refinedGreedy = append(refinedGreedy, name)
		}
	}
	if inputs != 206 {
		t.Fatalf("%d inputs, want 206", inputs)
	}
	check := func(path string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, want %v", path, got, want)
		}
	}
	check("inputs whose csc stage aborted", len(aborted), 35)
	check("inputs refined after expansion", len(refined), 110)
	check("inputs whose refinement needed the greedy tail", len(refinedGreedy), 54)
	check("inputs whose refinement left conflicts", persist, []string{
		"random-23", "random-44", "random-57", "tworounds-23", "tworounds-44",
	})
}
