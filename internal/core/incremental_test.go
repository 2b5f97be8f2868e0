package core

// History independence of the incremental SAT path (DESIGN.md §3.12): a
// chain solver's step does not depend on what the solver solved before.
// One csc.ChainSolver shared by every solve chain of a run — rebinding
// from module quotient to module quotient, and keeping its columns on
// the full graph from the residual pass into expansion refinement —
// gives bit-identical circuits, per-formula statistics and search
// counters to the default of one solver per chain. That every step
// equals a from-scratch search of its one-shot formula is checked in
// internal/csc (TestIncrementalMatchesFresh*).

import (
	"context"
	"fmt"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/benchrec"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/stg"
)

// fingerprint flattens every externally visible synthesis result into a
// single comparable string: counts, area, the full SOP cover of every
// function and every module report.
func fingerprint(r *Result) string {
	s := fmt.Sprintf("states=%d->%d signals=%d->%d inserted=%d area=%d\n",
		r.InitialStates, r.FinalStates, r.InitialSignals, r.FinalSignals, r.Inserted, r.Area)
	for _, f := range r.Functions {
		s += f.String() + "\n"
	}
	for _, o := range r.Outputs {
		s += fmt.Sprintf("module %s merged=%d conflicts=%d new=%d inputs=%v\n",
			o.Output, o.MergedStates, o.Ncsc, o.NewSignals, o.InputSet)
	}
	return s
}

// digest is the facade's Circuit.Digest of a modular result: the final
// shape and every equation, hashed with benchrec.Digest.
func digest(r *Result) string {
	parts := []string{fmt.Sprintf("shape %d/%d/%d/%d", r.FinalStates, r.FinalSignals, r.FinalSignals-r.InitialSignals, r.Area)}
	for _, f := range r.Functions {
		parts = append(parts, f.String())
	}
	return benchrec.Digest(parts)
}

// formulaLines flattens the stats of every formula of a run, module
// formulas first, minus their timings (the only fields allowed to
// differ between two runs).
func formulaLines(r *Result) []string {
	var out []string
	add := func(output string, fs []csc.FormulaStats) {
		for _, f := range fs {
			f.SolveTime, f.SearchTime = 0, 0
			out = append(out, fmt.Sprintf("%s %+v", output, f))
		}
	}
	for _, o := range r.Outputs {
		add(o.Output, o.Formulas)
	}
	add("", r.Fallback)
	return out
}

// synthCounted runs one modular synthesis of spec with a fresh solve
// cache, so the run also goes through the cache's solve path, and
// returns the result with the run's counters.
func synthCounted(t *testing.T, spec *stg.G, opt Options) (*Result, map[string]int64) {
	t.Helper()
	mc := metrics.New()
	opt.SAT.Cache = modcache.New()
	res, err := Synthesize(metrics.With(context.Background(), mc), spec, opt)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res, mc.Map()
}

// TestIncrementalMatchesFresh runs every Table-1 row at Workers 1 and 4,
// and handshake k=3 at Workers 1, with one chain solver per chain and
// with one shared by the whole run.
func TestIncrementalMatchesFresh(t *testing.T) {
	type row struct {
		name    string
		load    func() (*stg.G, error)
		workers []int
	}
	var rows []row
	for _, name := range bench.Names() {
		rows = append(rows, row{name, func() (*stg.G, error) { return bench.Load(name) }, []int{1, 4}})
	}
	rows = append(rows, row{"handshake-k3", func() (*stg.G, error) { return stg.Handshakes("", 3, 2) }, []int{1}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, w := range r.workers {
				rf, cf := synthCounted(t, loadSpec(t, r.load), Options{Workers: w})
				ri, ci := synthCounted(t, loadSpec(t, r.load), Options{Workers: w, SAT: csc.SolveOptions{Incr: csc.NewChainSolver()}})
				if got, want := fingerprint(ri), fingerprint(rf); got != want {
					t.Fatalf("workers=%d: shared-solver circuit diverges from per-chain solvers:\nshared:\n%s\nper chain:\n%s", w, got, want)
				}
				if got, want := digest(ri), digest(rf); got != want {
					t.Fatalf("workers=%d: digest %s != %s", w, got, want)
				}
				li, lf := formulaLines(ri), formulaLines(rf)
				if len(li) != len(lf) {
					t.Fatalf("workers=%d: %d formulas shared, %d per chain", w, len(li), len(lf))
				}
				for i := range li {
					if li[i] != lf[i] {
						t.Fatalf("workers=%d formula %d: %s != %s", w, i, li[i], lf[i])
					}
				}
				if ci["sat_assumptions"] == 0 {
					t.Errorf("workers=%d: run reported no assumption steps", w)
				}
				// The SAT search itself must also be step-for-step identical,
				// not just the final circuit.
				for _, k := range []string{"sat_assumptions", "sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned", "sat_restarts", "sat_clauses", "sat_vars"} {
					if gi, gf := ci[k], cf[k]; gi != gf {
						t.Errorf("workers=%d: counter %s: shared %d, per chain %d", w, k, gi, gf)
					}
				}
			}
		})
	}
}

func loadSpec(t *testing.T, load func() (*stg.G, error)) *stg.G {
	t.Helper()
	spec, err := load()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
