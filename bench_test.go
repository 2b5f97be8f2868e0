package asyncsyn

// Benchmark harness for the paper's evaluation:
//
//   - BenchmarkTable1Modular / Direct / Lavagno regenerate the CPU-time
//     columns of Table 1, one sub-benchmark per STG row.
//   - BenchmarkClauseReduction measures the in-text mmu0 claim: building
//     the direct whole-graph formula (searched only to its first
//     conflict) vs all modular formulas.
//   - BenchmarkStateGraph isolates the reachability + coding substrate.
//   - BenchmarkAblationEncoding compares the Tseitin separation
//     encoding with the paper-style expanded CNF. The support-restriction
//     ablation, a test hook of internal/core, is internal/core's
//     BenchmarkAblationSupport.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/par"
	"asyncsyn/internal/sg"
)

func benchSynth(b *testing.B, name string, opt Options) {
	src, err := bench.Source(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ParseSTGString(src)
		if err != nil {
			b.Fatal(err)
		}
		c, err := Synthesize(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(c.Area), "literals")
			b.ReportMetric(float64(c.FinalStates), "states")
			b.ReportMetric(float64(c.StateSignals), "statesigs")
			if c.Aborted {
				b.ReportMetric(1, "aborted")
			}
		}
	}
}

// fastRows are the rows every method completes quickly; bigRows need a
// meaningful budget and separate direct/lavagno handling.
var fastRows = []string{
	"sbuf-ram-write", "vbe4a", "nak-pa", "pe-rcv-ifc-fc", "ram-read-sbuf",
	"alex-nonfc", "sbuf-send-pkt2", "sbuf-send-ctl", "atod", "pa",
	"alloc-outbound", "wrdata", "fifo", "sbuf-read-ctl", "nouse",
	"vbe-ex2", "nousc-ser", "sendr-done", "vbe-ex1",
}

var bigRows = []string{"mr0", "mr1", "mmu0", "mmu1"}

func BenchmarkTable1Modular(b *testing.B) {
	for _, name := range append(append([]string{}, bigRows...), fastRows...) {
		b.Run(name, func(b *testing.B) { benchSynth(b, name, Options{Method: Modular}) })
	}
}

func BenchmarkTable1Direct(b *testing.B) {
	// The paper's direct method aborts at the backtrack limit on the
	// large rows; a bounded budget keeps the same behaviour observable.
	for _, name := range append(append([]string{}, bigRows...), fastRows...) {
		b.Run(name, func(b *testing.B) {
			benchSynth(b, name, Options{Method: Direct, MaxBacktracks: 300000})
		})
	}
}

func BenchmarkTable1Lavagno(b *testing.B) {
	for _, name := range append(append([]string{}, bigRows...), fastRows...) {
		b.Run(name, func(b *testing.B) {
			benchSynth(b, name, Options{Method: Lavagno, MaxBacktracks: 300000})
		})
	}
}

// benchRowPool synthesizes every big Table-1 row once per iteration,
// fanned out over a row-level pool of rowWorkers (the cmd/table1
// -workers layout: a row pool >1 drops each synthesis to sequential
// stages so the machine is not oversubscribed).
func benchRowPool(b *testing.B, rowWorkers int) {
	srcs := make([]string, len(bigRows))
	for i, name := range bigRows {
		src, err := bench.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = src
	}
	inner := 0
	if par.Workers(rowWorkers) > 1 {
		inner = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := par.Map(len(srcs), rowWorkers, func(j int) (int, error) {
			g, err := ParseSTGString(srcs[j])
			if err != nil {
				return 0, err
			}
			c, err := Synthesize(g, Options{Method: Modular, Workers: inner})
			if err != nil {
				return 0, err
			}
			return c.Area, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelTable1 measures the row-level worker pool on the big
// Table-1 rows: all four synthesized one after another vs on a
// GOMAXPROCS pool. Identical cells either way; only wall-clock moves.
func BenchmarkParallelTable1(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchRowPool(b, 1) })
	b.Run("pool", func(b *testing.B) { benchRowPool(b, 0) })
}

// BenchmarkParallelSynthesize measures the in-pipeline worker pool
// (per-signal logic derivation, its one user) on each big row:
// Workers=1 vs Workers=GOMAXPROCS.
func BenchmarkParallelSynthesize(b *testing.B) {
	for _, name := range bigRows {
		b.Run(name+"/workers=1", func(b *testing.B) {
			benchSynth(b, name, Options{Method: Modular, Workers: 1})
		})
		b.Run(name+"/workers=max", func(b *testing.B) {
			benchSynth(b, name, Options{Method: Modular, Workers: 0})
		})
	}
}

// BenchmarkClauseReduction reproduces the in-text mmu0 claim at the
// formula level: build the direct whole-graph CSC formula and every
// modular formula, reporting their sizes. The direct formula's search
// stops at its first conflict (a one-backtrack budget), so that leg
// measures building and loading the formula, not solving it.
func BenchmarkClauseReduction(b *testing.B) {
	spec, err := bench.Load("mmu0")
	if err != nil {
		b.Fatal(err)
	}
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	conf := sg.Analyze(full)
	m := conf.LowerBound
	if m < 1 {
		m = 1
	}
	b.Run("direct-encode", func(b *testing.B) {
		var clauses int
		for i := 0; i < b.N; i++ {
			_, st, err := csc.Attempt(context.Background(), full, conf, m, csc.SolveOptions{MaxBacktracks: 1})
			if err != nil {
				b.Fatal(err)
			}
			clauses = st.Clauses
		}
		b.ReportMetric(float64(clauses), "clauses")
	})
	b.Run("modular-encode", func(b *testing.B) {
		var maxClauses int
		for i := 0; i < b.N; i++ {
			spec, _ := bench.Load("mmu0")
			c, err := Synthesize(&STG{g: spec}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			maxClauses = 0
			for _, f := range c.Formulas {
				if f.Clauses > maxClauses {
					maxClauses = f.Clauses
				}
			}
		}
		b.ReportMetric(float64(maxClauses), "maxclauses")
	})
}

// BenchmarkStateGraph isolates state graph generation (reachability +
// consistent coding) on the largest benchmark.
func BenchmarkStateGraph(b *testing.B) {
	for _, name := range []string{"mr0", "mmu0", "nak-pa", "fifo"} {
		spec, err := bench.Load(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sg.FromSTG(spec, sg.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEncoding compares the Tseitin separation encoding
// with the paper-style expanded CNF.
func BenchmarkAblationEncoding(b *testing.B) {
	b.Run("tseitin", func(b *testing.B) { benchSynth(b, "nak-pa", Options{}) })
	b.Run("expandxor", func(b *testing.B) { benchSynth(b, "nak-pa", Options{ExpandXor: true}) })
}
