package core

// Parity contract of the incremental SAT path (DESIGN.md §3.12): solving
// a widening chain's formulas as assumption-guarded steps of one
// persistent solver produces bit-identical circuits — and identical
// per-formula statistics and search counters — to re-encoding every step
// from scratch (SATOptions.NoIncremental).

import (
	"context"
	"fmt"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/benchrec"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/modcache"
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
// differ between the two paths).
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

// synthCounted runs one modular synthesis of a Table-1 row with a fresh
// per-run solve cache, as the facade's default does, and returns the
// result with the run's counters.
func synthCounted(t *testing.T, name string, opt Options) (*Result, map[string]int64) {
	t.Helper()
	spec, err := bench.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	opt.SAT.Cache = modcache.New()
	res, err := Synthesize(metrics.With(context.Background(), mc), spec, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, mc.Map()
}

func TestIncrementalMatchesFresh(t *testing.T) {
	for _, name := range []string{"vbe4a", "nak-pa", "sbuf-ram-write"} {
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				ri, ci := synthCounted(t, name, Options{Workers: w})
				rf, cf := synthCounted(t, name, Options{Workers: w, SAT: SATOptions{NoIncremental: true}})
				if got, want := fingerprint(ri), fingerprint(rf); got != want {
					t.Fatalf("workers=%d: incremental circuit diverges from fresh:\nincremental:\n%s\nfresh:\n%s", w, got, want)
				}
				if got, want := digest(ri), digest(rf); got != want {
					t.Fatalf("workers=%d: digest %s != %s", w, got, want)
				}
				li, lf := formulaLines(ri), formulaLines(rf)
				if len(li) != len(lf) {
					t.Fatalf("workers=%d: %d formulas incremental, %d fresh", w, len(li), len(lf))
				}
				for i := range li {
					if li[i] != lf[i] {
						t.Fatalf("workers=%d formula %d: %s != %s", w, i, li[i], lf[i])
					}
				}
				if ci["sat_assumptions"] == 0 {
					t.Errorf("workers=%d: incremental run reported no assumption steps", w)
				}
				if n := cf["sat_assumptions"]; n != 0 {
					t.Errorf("workers=%d: NoIncremental run reported %d assumption steps", w, n)
				}
				// The SAT search itself must also be step-for-step identical,
				// not just the final circuit.
				for _, k := range []string{"sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned", "sat_restarts", "sat_clauses", "sat_vars"} {
					if gi, gf := ci[k], cf[k]; gi != gf {
						t.Errorf("workers=%d: counter %s: incremental %d, fresh %d", w, k, gi, gf)
					}
				}
			}
		})
	}
}
