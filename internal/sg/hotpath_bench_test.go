package sg

import (
	"testing"
	"time"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/stg"
)

// benchExpandGraph builds the expansion benchmark input: a concurrent
// handshake graph with a synthetic state-signal column, so Expand walks
// the full xstate product construction.
func benchExpandGraph(b *testing.B) *Graph {
	b.Helper()
	spec, err := stg.Handshakes("", 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromSTG(spec, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ph := make([]Phase, len(g.States))
	for s := range ph {
		switch s % 4 {
		case 0:
			ph[s] = P0
		case 1:
			ph[s] = PUp
		case 2:
			ph[s] = P1
		default:
			ph[s] = PDown
		}
	}
	g.StateSigs = append(g.StateSigs, StateSignal{Name: "t0", Phases: ph})
	return g
}

// BenchmarkExpandStream measures the streaming wave expansion on the
// same input as BenchmarkExpand. Besides allocs/op it reports the
// sampled HeapInuse high-water mark (peak-B), which cmd/allocheck gates
// against the committed HEAP_0.json: a streaming path that quietly
// re-materializes the expanded graph shows up as a peak-heap jump here
// long before the scaling sweep would catch it.
func BenchmarkExpandStream(b *testing.B) {
	g := benchExpandGraph(b)
	b.ReportAllocs()
	watch := metrics.WatchHeap(2 * time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExpandStream(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(watch.Stop()), "peak-B")
}

// BenchmarkExpand measures the state-signal expansion (the §3.5 product
// construction), the pipeline's other per-refinement-round hot path next
// to the quotient.
func BenchmarkExpand(b *testing.B) {
	g := benchExpandGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Expand(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictScan measures the whole-graph CSC conflict analysis:
// code grouping, enabled-mask columns, and the pairwise scan.
func BenchmarkConflictScan(b *testing.B) {
	spec, err := stg.Handshakes("", 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromSTG(spec, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Analyze(g); c == nil {
			b.Fatal("nil conflicts")
		}
	}
}

// BenchmarkFromSTG measures elaboration, the first step of every
// method: reachability over the packed marking arena, the edge rows and
// the word-parallel level inference, on the largest Table-1 row (mr0)
// and on the handshake with five concurrent branches (6252 states).
func BenchmarkFromSTG(b *testing.B) {
	mr0, err := bench.Load("mr0")
	if err != nil {
		b.Fatal(err)
	}
	hs, err := stg.Handshakes("", 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec *stg.G
	}{{"mr0", mr0}, {"handshake-k5", hs}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromSTG(c.spec, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
