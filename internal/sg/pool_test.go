package sg

import "testing"

// TestPooledMapsRecycleEmpty pins the pool hygiene policy: interning
// maps are cleared before they go back to their pool, so a pool hit
// always yields an empty map (a stale entry would corrupt state
// interning), and oversized maps are dropped so one huge expansion
// cannot pin its bucket arrays in the pool for the life of the process.
func TestPooledMapsRecycleEmpty(t *testing.T) {
	idx := map[xstate]int{{orig: 3, x: 1}: 7, {orig: 0, x: 0}: 0}
	if !putExpandIndex(idx) {
		t.Fatal("small interning map was not pooled")
	}
	if len(idx) != 0 {
		t.Fatalf("pooled interning map kept %d entries", len(idx))
	}

	// Whatever Get returns — recycled or fresh — must be empty.
	got := expandIndexPool.Get().(map[xstate]int)
	if len(got) != 0 {
		t.Fatalf("expandIndexPool.Get returned %d stale entries", len(got))
	}
	putExpandIndex(got)

	big := make(map[xstate]int, maxPooledMapEntries+1)
	for i := 0; i <= maxPooledMapEntries; i++ {
		big[xstate{orig: i}] = i
	}
	if putExpandIndex(big) {
		t.Fatal("oversized map was pooled; it should be dropped for the GC")
	}
}
