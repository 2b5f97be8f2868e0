package core

// The ablation hooks of Options that only this package's tests set:
// fullSupport (derive every function over all signals) and exactLogic
// (the exact minimum-literal minimizer).

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sim"
)

// TestExactLogicOption: the exact minimizer must never lose to the
// heuristic on the same insertion, and its circuit must pass the
// exhaustive closed-loop conformance check.
func TestExactLogicOption(t *testing.T) {
	for _, name := range []string{"sbuf-read-ctl", "ram-read-sbuf", "pe-rcv-ifc-fc", "fifo"} {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Synthesize(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Synthesize(context.Background(), spec, Options{exactLogic: true})
		if err != nil {
			t.Fatal(err)
		}
		if e.Area > h.Area {
			t.Errorf("%s: exact area %d > heuristic %d", name, e.Area, h.Area)
		}
		c := &sim.Circuit{}
		for _, f := range e.Functions {
			c.Gates = append(c.Gates, sim.Gate{Name: f.Name, Inputs: f.Vars, Cover: f.Cover})
		}
		levels := map[string]bool{}
		init := e.View.InitialCode()
		for i, b := range e.View.Base {
			levels[b.Name] = init&(1<<i) != 0
		}
		if bad := sim.Run(spec, c, levels, sim.Options{MaxDepth: 100000}); len(bad) != 0 {
			t.Errorf("%s: exact circuit violates conformance: %v", name, bad)
		}
	}
}

// BenchmarkAblationSupport compares the per-output support restriction
// (the paper's area mechanism) against full-support derivation on one
// Table-1 row, each run with its own solve cache as the facade's default.
func BenchmarkAblationSupport(b *testing.B) {
	spec, err := bench.Load("sbuf-ram-write")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		full bool
	}{{"restricted", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Synthesize(context.Background(), spec, Options{
					fullSupport: mode.full, SAT: csc.SolveOptions{Cache: modcache.New()},
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Area), "literals")
					b.ReportMetric(float64(res.FinalStates), "states")
					b.ReportMetric(float64(res.FinalSignals-res.InitialSignals), "statesigs")
				}
			}
		})
	}
}
