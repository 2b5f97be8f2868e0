package asyncsyn

import (
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/benchrec"
)

// TestModularSuite runs modular synthesis over every reconstructed
// benchmark and checks the invariants every successful run must satisfy.
// It also pins every circuit to the modular row of the newest committed
// BENCH_*.json record (the one cmd/bench -against resolves), run with
// that record's backtrack budget: the area and the digest of every
// equation must match, so a change that moves any Table-1 circuit fails
// here, not only in the benchmark smoke run.
func TestModularSuite(t *testing.T) {
	path, err := benchrec.ResolveBaseline(".")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := benchrec.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.Available() {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := bench.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ParseSTGString(src)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Synthesize(g, Options{Method: Modular, MaxBacktracks: rec.Env.MaxBacktracks})
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			row, ok := rec.Row(name)
			if !ok {
				t.Fatalf("%s has no row for %s", path, name)
			}
			if want := row.Modular; c.Area != want.Area || c.Digest() != want.Digest {
				t.Errorf("area %d, digest %s; %s has area %d, digest %s",
					c.Area, c.Digest(), path, want.Area, want.Digest)
			}
			if c.Aborted {
				t.Fatalf("aborted (backtrack limit)")
			}
			if c.StateSignals < 1 {
				t.Errorf("no state signals inserted")
			}
			if c.FinalStates < c.InitialStates {
				t.Errorf("final states %d < initial %d", c.FinalStates, c.InitialStates)
			}
			if c.Area <= 0 {
				t.Errorf("area %d", c.Area)
			}
			t.Logf("%s: %d→%d states, %d→%d signals, area %d, cpu %v",
				name, c.InitialStates, c.FinalStates, c.InitialSignals, c.FinalSignals, c.Area, c.CPU)
		})
	}
}
