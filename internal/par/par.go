// Package par is the deterministic-parallelism substrate of the
// synthesis pipeline: Workers resolves a worker-count option, and
// ForEachIndexed and Map fan an index range out over at most that many
// goroutines. The design rule (DESIGN.md §3.8) is "parallel compute,
// ordered reduce": workers may interleave arbitrarily, but every merge
// happens in index order, so pipeline output is bit-for-bit identical
// for any worker count — including 1, which degrades to a plain loop.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachIndexed runs fn(i) for every i in [0,n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS; workers == 1 runs inline
// with no goroutines). Every index runs regardless of other indices'
// errors, and the error of the lowest failing index is returned — the
// same error a sequential loop collecting all errors would pick — so
// failure behaviour does not depend on scheduling.
func ForEachIndexed(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0,n) on the pool and returns the results in index
// order (the ordered reduce: out[i] is fn(i)'s value no matter which
// worker computed it or when).
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachIndexed(n, workers, func(i int) error {
		v, ferr := fn(i)
		out[i] = v
		return ferr
	})
	return out, err
}
