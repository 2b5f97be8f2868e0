package metrics

import (
	"context"
	"sync"
	"testing"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Add(SATDecisions, 5) // must not panic
	c.Reset()
	if got := c.Value(SATDecisions); got != 0 {
		t.Fatalf("nil Value = %d, want 0", got)
	}
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil Snapshot = %v, want zero", s)
	}
	if m := c.Map(); m != nil {
		t.Fatalf("nil Map = %v, want nil", m)
	}
}

func TestAddValueAndDelta(t *testing.T) {
	c := New()
	c.Add(SATDecisions, 3)
	c.Add(SATDecisions, 4)
	c.Add(Modules, 1)
	if got := c.Value(SATDecisions); got != 7 {
		t.Fatalf("Value(SATDecisions) = %d, want 7", got)
	}
	before := c.Snapshot()
	c.Add(SGStates, 100)
	d := c.Snapshot().Delta(before)
	if len(d) != 1 || d["sg_states"] != 100 {
		t.Fatalf("Delta = %v, want {sg_states:100}", d)
	}
	m := c.Map()
	if m["sat_decisions"] != 7 || m["modules"] != 1 || m["sg_states"] != 100 {
		t.Fatalf("Map = %v", m)
	}
	c.Reset()
	if m := c.Map(); m != nil {
		t.Fatalf("Map after Reset = %v, want nil", m)
	}
}

func TestKindNamesStable(t *testing.T) {
	// The names are part of the benchrec schema; a rename is a breaking
	// schema change and must bump benchrec.SchemaVersion.
	want := []string{
		"sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned",
		"sat_restarts", "sat_formulas", "sat_clauses", "sat_vars",
		"sg_states", "sg_states_merged",
		"espresso_expand", "espresso_reduce", "modules",
		"modcache_hits", "modcache_misses", "modcache_inflight",
		"sat_warm_clauses", "sat_assumptions",
		"sg_states_streamed", "sg_peak_frontier",
		"modcache_peer_hits", "modcache_peer_misses",
	}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("got %d kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("Kind(%d).String() = %q, want %q", i, k.String(), want[i])
		}
	}
	if Kind(-1).String() != "unknown" || Kind(999).String() != "unknown" {
		t.Error("out-of-range kinds should stringify as unknown")
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("From(empty ctx) != nil")
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(ctx, nil) should return ctx unchanged")
	}
	c := New()
	ctx = With(ctx, c)
	if From(ctx) != c {
		t.Fatal("From did not recover the attached collector")
	}
}

func TestConcurrentAdd(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(SATPropagations, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(SATPropagations); got != 8000 {
		t.Fatalf("concurrent Value = %d, want 8000", got)
	}
}
