package csc_test

// Parity of the incremental SAT path on the Direct (whole-graph) method,
// which reaches the chain solver through csc.Solve instead of the
// modular partition pass: with and without SolveOptions.NoIncremental the
// Direct stage list (csc.Solve, then core.ExpandToCSC and
// core.DeriveLogic, as the facade runs it) gives the bit-identical
// circuit, the same per-formula statistics and the same search counters.
// The test sits in an external package so it can import internal/core.

import (
	"context"
	"fmt"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/benchrec"
	"asyncsyn/internal/core"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sg"
)

// directRun is one Direct synthesis flattened for comparison.
type directRun struct {
	fingerprint string // shape, inserted columns and every equation
	digest      string // the facade's Circuit.Digest of the circuit
	formulas    []string
	counters    map[string]int64
}

func runDirect(t *testing.T, name string, noIncr bool) directRun {
	t.Helper()
	spec, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	ctx := metrics.With(context.Background(), mc)
	cache := modcache.New()
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	initialSignals := len(full.Base)
	dr, err := csc.Solve(ctx, full, csc.SolveOptions{Cache: cache, NoIncremental: noIncr})
	if err != nil {
		t.Fatalf("%s: csc: %v", name, err)
	}
	opt := core.Options{SAT: core.SATOptions{Cache: cache, NoIncremental: noIncr}}
	view, _, fallback, err := core.ExpandToCSC(ctx, full, opt)
	if err != nil {
		t.Fatalf("%s: expand: %v", name, err)
	}
	fns, err := core.DeriveLogic(ctx, view, full, nil, nil, opt)
	if err != nil {
		t.Fatalf("%s: logic: %v", name, err)
	}

	var r directRun
	area := 0
	for _, f := range fns {
		area += f.Literals()
	}
	shape := fmt.Sprintf("shape %d/%d/%d/%d", view.NumStates(), len(view.Base), len(view.Base)-initialSignals, area)
	parts := []string{shape}
	r.fingerprint = fmt.Sprintf("%s inserted=%d\n", shape, dr.Inserted)
	for _, s := range full.StateSigs {
		r.fingerprint += fmt.Sprintf("column %s %v\n", s.Name, s.Phases)
	}
	for _, f := range fns {
		r.fingerprint += f.String() + "\n"
		parts = append(parts, f.String())
	}
	r.digest = benchrec.Digest(parts)
	for _, f := range append(dr.Formulas, fallback...) {
		f.SolveTime, f.SearchTime = 0, 0
		r.formulas = append(r.formulas, fmt.Sprintf("%+v", f))
	}
	r.counters = mc.Map()
	return r
}

func TestIncrementalMatchesFreshDirect(t *testing.T) {
	for _, name := range []string{"vbe4a", "nak-pa"} {
		t.Run(name, func(t *testing.T) {
			ri, rf := runDirect(t, name, false), runDirect(t, name, true)
			if ri.fingerprint != rf.fingerprint {
				t.Fatalf("incremental Direct circuit diverges from fresh:\nincremental:\n%s\nfresh:\n%s", ri.fingerprint, rf.fingerprint)
			}
			if ri.digest != rf.digest {
				t.Fatalf("digest %s != %s", ri.digest, rf.digest)
			}
			if len(ri.formulas) != len(rf.formulas) {
				t.Fatalf("%d formulas incremental, %d fresh", len(ri.formulas), len(rf.formulas))
			}
			for i := range ri.formulas {
				if ri.formulas[i] != rf.formulas[i] {
					t.Fatalf("formula %d: %s != %s", i, ri.formulas[i], rf.formulas[i])
				}
			}
			if ri.counters["sat_assumptions"] == 0 {
				t.Error("Direct incremental run reported no assumption steps")
			}
			if n := rf.counters["sat_assumptions"]; n != 0 {
				t.Errorf("NoIncremental Direct run reported %d assumption steps", n)
			}
			for _, k := range []string{"sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned", "sat_restarts", "sat_clauses", "sat_vars"} {
				if gi, gf := ri.counters[k], rf.counters[k]; gi != gf {
					t.Errorf("counter %s: incremental %d, fresh %d", k, gi, gf)
				}
			}
		})
	}
}
