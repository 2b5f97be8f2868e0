package sg

import "sync"

// bitset is a packed set of state indices: one bit per state in []uint64
// columns. The synthesis hot paths (code grouping, region flooding,
// enabled-set scans) use bitsets instead of map[int]bool so membership
// tests are a shift and a mask, and whole-set operations run a word at a
// time.
type bitset []uint64

// newBitset returns a zeroed bitset able to hold n bits, reusing buf's
// storage when it is large enough.
func newBitset(buf bitset, n int) bitset {
	words := (n + 63) / 64
	if cap(buf) < words {
		return make(bitset, words)
	}
	buf = buf[:words]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// scratchPool recycles the per-call integer scratch slices of the sg hot
// paths (quotient union-find arrays, radix-sort buffers). Slices are
// re-sliced and overwritten on reuse, so a pooled buffer never leaks
// state between calls and results are identical with or without a hit.
var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

// scratch is one reusable bundle of hot-path buffers. Only buffers whose
// contents do not escape the call may live here; anything returned to
// the caller (group members, cover arrays) is allocated fresh.
type scratch struct {
	ints  []int
	ints2 []int
	u64s  []uint64
	u64s2 []uint64
	bits  bitset
	bits2 bitset
	dirs  []int8
	flags []uint8
	sets  []PhaseSet
	bytes []byte
	edges []Edge
}

// resize returns *buf resized to n, reallocating only when its capacity
// is short (contents undefined).
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (s *scratch) intsFor(n int) []int      { return resize(&s.ints, n) }
func (s *scratch) ints2For(n int) []int     { return resize(&s.ints2, n) }
func (s *scratch) u64sFor(n int) []uint64   { return resize(&s.u64s, n) }
func (s *scratch) u64s2For(n int) []uint64  { return resize(&s.u64s2, n) }
func (s *scratch) flagsFor(n int) []uint8   { return resize(&s.flags, n) }
func (s *scratch) setsFor(n int) []PhaseSet { return resize(&s.sets, n) }

// dirsFor returns s.dirs resized to n and filled with fill.
func (s *scratch) dirsFor(n int, fill int8) []int8 {
	d := resize(&s.dirs, n)
	for i := range d {
		d[i] = fill
	}
	return d
}

// scratchFor returns a scratch bundle for a pass over an n-state graph:
// a pooled one, or above quotientSpillStates a fresh one that
// releaseScratch leaves to the GC. Pooled scratch never shrinks, so one
// huge graph would otherwise pin arenas of its size in the pool for the
// life of the process.
func scratchFor(n int) *scratch {
	if n > quotientSpillStates {
		return new(scratch)
	}
	return scratchPool.Get().(*scratch)
}

// releaseScratch returns a bundle obtained from scratchFor(n).
func releaseScratch(n int, sc *scratch) {
	if n <= quotientSpillStates {
		scratchPool.Put(sc)
	}
}
