package csc

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// BenchmarkSolveChain measures one whole CSC solve chain (conflict
// analysis, formula emission, SAT, decoding) on a concurrent handshake
// graph, its attempts solved on one incremental chain solver.
func BenchmarkSolveChain(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		spec, err := stg.Handshakes("", 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		g, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		base := len(g.StateSigs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.StateSigs = g.StateSigs[:base] // Solve appends; rewind between runs
			if _, err := Solve(context.Background(), g, SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveDirect measures the whole-graph CSC solve of the Direct
// baseline on mmu1: one state graph, one solve chain of SAT formulas
// over every state, which nearly all of a Direct synthesis of mmu1
// spends its time in. It is the SAT-layer view of that end-to-end run.
func BenchmarkSolveDirect(b *testing.B) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		b.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	base := len(g.StateSigs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StateSigs = g.StateSigs[:base]
		if _, err := Solve(context.Background(), g, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
