package asyncsyn

// Facade contract for the module solve cache: caching is a pure
// performance layer that a run opts into. A default run searches every
// formula uncached, and every cache configuration — a shared in-memory
// cache serving its second run entirely from hits, and an on-disk cache
// re-read by a fresh process stand-in — must synthesize the
// bit-identical circuit, at every worker count. This is the acceptance
// test the cache subsystem is gated on.

import (
	"fmt"
	"testing"
)

func TestCacheBitIdentical(t *testing.T) {
	for _, name := range []string{"vbe4a", "nak-pa"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(opt Options) *Circuit {
					opt.Workers = workers
					opt.Metrics = NewMetrics()
					return synthWorkers(t, name, opt)
				}

				ref := run(Options{})
				want := ref.Digest()
				for _, k := range []string{"modcache_hits", "modcache_misses", "modcache_inflight"} {
					if ref.Counters[k] != 0 {
						t.Fatalf("default run touched a solve cache: %s = %d", k, ref.Counters[k])
					}
				}

				shared := NewSolveCache()
				first := run(Options{Cache: shared})
				if got := first.Digest(); got != want {
					t.Errorf("shared cache cold run changed the circuit: %s vs %s", got, want)
				}
				second := run(Options{Cache: shared})
				if got := second.Digest(); got != want {
					t.Errorf("shared cache warm run changed the circuit: %s vs %s", got, want)
				}
				if second.Counters["modcache_hits"] == 0 {
					t.Errorf("warm run served no cache hits: %v", second.Counters)
				}

				dir := t.TempDir()
				if got := run(Options{CacheDir: dir}).Digest(); got != want {
					t.Errorf("disk cache cold run changed the circuit: %s vs %s", got, want)
				}
				// A fresh Options.CacheDir run builds a new Cache over the
				// same directory — the cross-process reuse path.
				warmDisk := run(Options{CacheDir: dir})
				if got := warmDisk.Digest(); got != want {
					t.Errorf("disk cache warm run changed the circuit: %s vs %s", got, want)
				}
				if warmDisk.Counters["modcache_hits"] == 0 {
					t.Errorf("disk warm run served no cache hits: %v", warmDisk.Counters)
				}
			})
		}
	}
}
