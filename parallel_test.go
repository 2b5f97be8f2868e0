package asyncsyn

// Determinism contract of the parallel pipeline (DESIGN.md §3.8): the
// synthesized circuit is bit-for-bit identical for every Workers value.

import (
	"fmt"
	"runtime"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/stg"
)

// fingerprint flattens every externally visible synthesis result into a
// single comparable string: counts, area, inserted-signal names, and
// the full SOP cover of every function.
func fingerprint(c *Circuit) string {
	s := fmt.Sprintf("states=%d->%d signals=%d->%d statesigs=%d area=%d aborted=%v\n",
		c.InitialStates, c.FinalStates, c.InitialSignals, c.FinalSignals,
		c.StateSignals, c.Area, c.Aborted)
	for _, f := range c.Functions {
		s += f.String() + "\n"
	}
	for _, m := range c.Modules {
		s += fmt.Sprintf("module %s merged=%d conflicts=%d new=%d inputs=%v\n",
			m.Output, m.MergedStates, m.Conflicts, m.NewSignals, m.InputSet)
	}
	return s
}

func synthWorkers(t *testing.T, name string, opt Options) *Circuit {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseSTGString(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Synthesize(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	names := []string{"vbe4a", "nak-pa", "sbuf-ram-write"}
	if !testing.Short() {
		names = append(names, "mmu1")
	}
	workerSet := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want := fingerprint(synthWorkers(t, name, Options{Workers: 1}))
			for _, w := range workerSet {
				got := fingerprint(synthWorkers(t, name, Options{Workers: w}))
				if got != want {
					t.Errorf("Workers=%d diverges from Workers=1:\n--- got ---\n%s--- want ---\n%s", w, got, want)
				}
			}
		})
	}
}

// TestRandomSTGDeterminismAcrossWorkers extends the determinism
// contract beyond the curated benchmarks: seeded random STGs,
// round-tripped through the text format, synthesized at Workers 1 and 8
// must agree on the circuit, the counters and the digest.
func TestRandomSTGDeterminismAcrossWorkers(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := ParseSTGString(stg.Format(spec))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seq, err := Synthesize(g, Options{Workers: 1, Metrics: NewMetrics()})
		if err != nil {
			t.Logf("seed %d: sequential synthesis failed (%v), skipping", seed, err)
			continue
		}
		par, err := Synthesize(g, Options{Workers: 8, Metrics: NewMetrics()})
		if err != nil {
			t.Errorf("seed %d: parallel synthesis failed where sequential succeeded: %v", seed, err)
			continue
		}
		if got, want := fingerprint(par)+counterFingerprint(par), fingerprint(seq)+counterFingerprint(seq); got != want {
			t.Errorf("seed %d: Workers=8 diverges from Workers=1:\n--- got ---\n%s--- want ---\n%s", seed, got, want)
		}
		if par.Digest() != seq.Digest() {
			t.Errorf("seed %d: digest %s != %s", seed, par.Digest(), seq.Digest())
		}
	}
}
