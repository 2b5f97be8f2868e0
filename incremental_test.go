package asyncsyn

// Parity contract of the incremental SAT path (DESIGN.md §3.12): solving
// a widening chain's formulas as assumption-guarded steps of one
// persistent solver produces bit-identical circuits — and identical
// per-formula statistics — to re-encoding every step from scratch.

import (
	"fmt"
	"testing"
)

// formulaLine flattens one FormulaStat minus its timings (the only
// fields allowed to differ between the two paths).
func formulaLine(f FormulaStat) string {
	f.Time, f.Search = 0, 0
	return fmt.Sprintf("%+v", f)
}

func TestIncrementalMatchesFresh(t *testing.T) {
	names := []string{"vbe4a", "nak-pa", "sbuf-ram-write"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				mIncr, mFresh := NewMetrics(), NewMetrics()
				ci := synthWorkers(t, name, Options{Workers: w, Metrics: mIncr})
				cf := synthWorkers(t, name, Options{Workers: w, Metrics: mFresh, DisableIncrementalSAT: true})
				if got, want := fingerprint(ci), fingerprint(cf); got != want {
					t.Fatalf("workers=%d: incremental circuit diverges from fresh:\nincremental:\n%s\nfresh:\n%s", w, got, want)
				}
				if got, want := circuitDigest(ci), circuitDigest(cf); got != want {
					t.Fatalf("workers=%d: digest %s != %s", w, got, want)
				}
				if len(ci.Formulas) != len(cf.Formulas) {
					t.Fatalf("workers=%d: %d formulas incremental, %d fresh", w, len(ci.Formulas), len(cf.Formulas))
				}
				for i := range ci.Formulas {
					if got, want := formulaLine(ci.Formulas[i]), formulaLine(cf.Formulas[i]); got != want {
						t.Fatalf("workers=%d formula %d: %s != %s", w, i, got, want)
					}
				}
				if ci.Counters["sat_assumptions"] == 0 {
					t.Errorf("workers=%d: incremental run reported no assumption steps", w)
				}
				if n := cf.Counters["sat_assumptions"]; n != 0 {
					t.Errorf("workers=%d: DisableIncrementalSAT run reported %d assumption steps", w, n)
				}
				// The SAT search itself must also be step-for-step identical,
				// not just the final circuit.
				for _, k := range []string{"sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned", "sat_restarts", "sat_clauses", "sat_vars"} {
					if gi, gf := ci.Counters[k], cf.Counters[k]; gi != gf {
						t.Errorf("workers=%d: counter %s: incremental %d, fresh %d", w, k, gi, gf)
					}
				}
			}
		})
	}
}

// TestIncrementalMatchesFreshDirect pins the same parity on the Direct
// (whole-graph) method, which reaches the incremental solver through
// csc.Solve instead of the modular partition pass.
func TestIncrementalMatchesFreshDirect(t *testing.T) {
	for _, name := range []string{"vbe4a", "nak-pa"} {
		t.Run(name, func(t *testing.T) {
			mi := NewMetrics()
			ci := synthWorkers(t, name, Options{Method: Direct, Metrics: mi})
			cf := synthWorkers(t, name, Options{Method: Direct, DisableIncrementalSAT: true})
			if got, want := fingerprint(ci), fingerprint(cf); got != want {
				t.Fatalf("incremental Direct circuit diverges from fresh:\nincremental:\n%s\nfresh:\n%s", got, want)
			}
			if ci.Counters["sat_assumptions"] == 0 {
				t.Error("Direct incremental run reported no assumption steps")
			}
		})
	}
}
