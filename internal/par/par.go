// Package par is the deterministic-parallelism substrate of the
// synthesis pipeline: a bounded worker pool with ordered result
// collection, and a first-deterministic-winner race for engine
// portfolios. The design rule (DESIGN.md §3.8) is "parallel compute,
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

// Pool is a reusable bounded worker pool. The zero value runs
// sequentially; NewPool resolves the worker count once so callers can
// report it.
type Pool struct {
	workers int
}

// NewPool returns a pool of Workers(n) workers.
func NewPool(n int) *Pool { return &Pool{workers: Workers(n)} }

// Size returns the resolved worker count.
func (p *Pool) Size() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// ForEachIndexed runs fn(i) for i in [0,n) on the pool's workers.
func (p *Pool) ForEachIndexed(n int, fn func(i int) error) error {
	return ForEachIndexed(n, p.Size(), fn)
}

// Race runs every candidate concurrently and returns a deterministic
// winner: the lowest-indexed candidate whose result is accepted, with
// that index. Candidates are launched together, so preferring an early
// candidate costs no extra wall-clock over running it alone — later
// candidates are a concurrent fallback, consulted only when every
// earlier one is rejected (the "grace window" for the canonical engine
// is its own full runtime, never a timing cutoff). If no result is
// accepted, candidate 0's result is returned with index 0.
//
// The winner never depends on scheduling or timing, only on the
// candidates' own (deterministic) results. After a winner is chosen,
// cancel — if non-nil — is set so cooperative candidates can stop
// early; losers otherwise run to their own budget in the background,
// and their goroutines exit once they return.
func Race[T any](accept func(i int, r T) bool, cancel *atomic.Bool, candidates ...func() T) (T, int) {
	if len(candidates) == 1 {
		return candidates[0](), 0
	}
	ch := make([]chan T, len(candidates))
	for i, f := range candidates {
		ch[i] = make(chan T, 1)
		go func(i int, f func() T) { ch[i] <- f() }(i, f)
	}
	var fallback T
	for i := range candidates {
		r := <-ch[i]
		if i == 0 {
			fallback = r
		}
		if accept(i, r) {
			if cancel != nil {
				cancel.Store(true)
			}
			return r, i
		}
	}
	if cancel != nil {
		cancel.Store(true)
	}
	return fallback, 0
}
