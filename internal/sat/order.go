package sat

import (
	"cmp"
	"slices"
)

// The branching order is a binary max-heap of variables, MiniSat's order
// heap (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003). Variable
// a ranks ahead of b when its activity is higher; equal activities fall
// back to the initial rank: the variables sorted once, at setup, by
// (initial activity descending, variable ascending). That key is a
// strict total order, so the heap's top does not depend on the heap's
// layout, and it is the variable the reference linear scan in
// order_test.go picks: the first unassigned variable of highest activity
// over the variables in initial order.
//
// Each heap slot carries its variable's sort key inline, so a comparison
// reads the two slots and nothing else. A slot's act is a copy of
// activity[v]: bump updates both, and heapify refreshes every slot.
//
// Every unassigned branching variable is in the heap; an assigned one
// may linger until pickVar pops it, and cancelUntil puts back each
// variable it unassigns. Variables outside the branching order (the
// inert variables and the group guard of an Incremental step) are marked
// excluded and never enter it.

const (
	notInHeap int32 = -1
	excluded  int32 = -2
)

// slot is one heap entry: variable v with its activity and initial rank.
type slot struct {
	act  float64
	rank int32
	v    int32
}

// before reports whether slot a ranks ahead of slot b.
func before(a, b slot) bool {
	return a.act > b.act || a.act == b.act && a.rank < b.rank
}

// rankHeap gives the heap's variables their initial ranks. At setup each
// slot's act is the initial activity, so sorting the slots by key puts
// them in initial order, and a sorted array is already a heap.
func (s *solver) rankHeap() {
	h := s.heap
	slices.SortFunc(h, func(a, b slot) int {
		if c := cmp.Compare(b.act, a.act); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	for i := range h {
		h[i].rank = int32(i)
		s.rank[h[i].v] = int32(i)
		s.heapIdx[h[i].v] = int32(i)
	}
}

// siftUp moves the slot at i up to its place.
func (s *solver) siftUp(i int) {
	h := s.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(x, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapIdx[h[i].v] = int32(i)
		i = p
	}
	h[i] = x
	s.heapIdx[x.v] = int32(i)
}

// siftDown moves the slot at i down to its place.
func (s *solver) siftDown(i int) {
	h := s.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], x) {
			break
		}
		h[i] = h[c]
		s.heapIdx[h[i].v] = int32(i)
		i = c
	}
	h[i] = x
	s.heapIdx[x.v] = int32(i)
}

// heapify refreshes every slot's act from activity and restores the
// heap property over the whole heap: after a rescale, whose rounding can
// make two different activities equal and so hand their order to the
// initial rank, and after a test writes activities directly.
func (s *solver) heapify() {
	h := s.heap
	for i := range h {
		h[i].act = s.activity[h[i].v]
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// heapInsert puts v back unless it is in the heap already or excluded.
func (s *solver) heapInsert(v int) {
	if s.heapIdx[v] != notInHeap {
		return
	}
	s.heap = append(s.heap, slot{act: s.activity[v], rank: s.rank[v], v: int32(v)})
	s.siftUp(len(s.heap) - 1)
}

// heapPop removes and returns the top variable by bottom-up deletion: the
// hole at the root moves down along the higher child to a leaf, one
// comparison per level, and the last slot then sifts up from the hole.
// The last slot nearly always belongs near the bottom, so the sift-up
// is short, where sifting it down from the root would compare twice
// per level.
func (s *solver) heapPop() int {
	h := s.heap
	top := h[0].v
	s.heapIdx[top] = notInHeap
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	s.heap = h
	if last == 0 {
		return int(top)
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && before(h[r], h[c]) {
			c = r
		}
		h[i] = h[c]
		s.heapIdx[h[i].v] = int32(i)
		i = c
	}
	h[i] = x
	s.siftUp(i)
	return int(top)
}

// pickVar returns the unassigned variable of highest rank, or -1 when
// every branching variable is assigned.
func (s *solver) pickVar() int {
	for len(s.heap) > 0 {
		if v := s.heapPop(); s.vals[PosLit(v)] < 0 {
			return v
		}
	}
	return -1
}
