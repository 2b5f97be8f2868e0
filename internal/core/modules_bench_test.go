package core

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
)

// BenchmarkRunModules measures the module-solve stage on mmu1 at
// Workers 4: the pool serves the conflict scans, and the modules solve
// one after another. The graph build is inside the loop (runModules
// mutates the graph), so treat deltas, not absolutes, as the signal;
// cmd/allocheck gates its allocs/op.
func BenchmarkRunModules(b *testing.B) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Workers: 4}.withDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := runModules(context.Background(), full, spec, opt, &Result{Name: spec.Name}); err != nil {
			b.Fatal(err)
		}
	}
}
