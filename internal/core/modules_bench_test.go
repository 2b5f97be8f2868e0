package core

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/modcache"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// BenchmarkRunModules measures the module-solve stage on mmu1: the
// conflict scans and the module solves run one after another. The
// graph build is inside the loop (runModules mutates the graph), so
// treat deltas, not absolutes, as the signal; cmd/allocheck gates its
// allocs/op.
func BenchmarkRunModules(b *testing.B) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{}.withDefaults()
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

// BenchmarkRunModulesCached measures the module-solve stage on mmu1 at
// Workers 1 when every module solve is a cache hit: the cache is primed
// by one run before the timer, so each module pays only for its key
// (the layout hash), the lookup and the clone of the stored entry. The
// graph build is inside the loop, as in BenchmarkRunModules;
// cmd/allocheck gates its allocs/op.
func BenchmarkRunModulesCached(b *testing.B) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Workers: 1}
	opt.SAT.Cache = modcache.New()
	opt = opt.withDefaults()
	run := func() {
		full, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := runModules(context.Background(), full, spec, opt, &Result{Name: spec.Name}); err != nil {
			b.Fatal(err)
		}
	}
	run()
	primed := opt.SAT.Cache.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if n := opt.SAT.Cache.Len(); n != primed || primed == 0 {
		b.Fatalf("cache holds %d entries after the timed runs, %d after priming: some solve missed", n, primed)
	}
}

// BenchmarkRunModulesHandshake measures the module-solve stage on the
// handshake design with k=5 at Workers 1: five module formulas of 1.8k
// to 5.6k variables and 24k to 57k clauses, large enough that the SAT
// layer's memory layout shows, where mmu1's formulas fit in cache. The
// graph build is inside the loop, as in BenchmarkRunModules;
// cmd/allocheck gates its allocs/op.
func BenchmarkRunModulesHandshake(b *testing.B) {
	spec, err := stg.Handshakes("", 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Workers: 1}.withDefaults()
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
