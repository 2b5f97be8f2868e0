package sat

import (
	"cmp"
	"math/bits"
	"slices"
)

// The branching order picks, among the unassigned branching variables,
// the one of highest activity; equal activities fall back to the initial
// rank: the variables sorted once, at setup, by (initial activity
// descending, variable ascending). That key is a strict total order, so
// the pick does not depend on any data structure's layout, and it is the
// variable the reference linear scan in order_test.go picks: the first
// unassigned variable of highest activity over the variables in initial
// order.
//
// The order has two tiers. A variable no conflict has bumped yet keeps
// its initial activity, scaled by 1e-100 at each rescale. Rounding a
// product is monotone, so the never-bumped variables stay in rank order,
// and a tie that rounding creates is broken by rank, which is the key's
// own tie-break. So they need no heap: the rank tier is order (rank →
// variable), a bitset ranks with bit r set while the variable of rank r
// is in the order, and a word cursor below which every word is zero. Its
// best variable is the one of lowest set rank. A variable's first bump
// moves it for good to the heap tier, a binary max-heap of the bumped
// variables, MiniSat's order heap (Eén & Sörensson, "An Extensible
// SAT-solver", SAT 2003). pickVar compares the two tiers' best unassigned
// variables by the key and takes the winner. In a handshake k=5
// synthesis four in five branching variables are never bumped, and they
// make more than half of the order's removals and re-insertions
// (DESIGN.md §3.12 counts them).
//
// Each heap slot carries its variable's sort key inline, so a comparison
// reads the two slots and nothing else. A slot's act is a copy of
// activity[v]: bump updates both, and heapify refreshes every slot.
//
// Every unassigned branching variable is in its tier: never bumped with
// its rank bit set, or bumped and in the heap. An assigned one may
// linger in either until pickVar drops it, and cancelUntil puts back
// each variable it unassigns. Variables outside the branching order (the
// inert variables and the group guard of an Incremental step) are marked
// excluded and have no rank.

const (
	// notInHeap marks a bumped variable that is out of the heap.
	notInHeap int32 = -1
	// excluded marks a variable outside the branching order.
	excluded int32 = -2
	// unbumped marks a variable of the rank tier.
	unbumped int32 = -3
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

// rankOrder sorts h, one slot per branching variable with its initial
// activity, into the initial order, records the ranks, and puts every
// variable in the rank tier. The heap starts empty in h's backing array.
func (s *solver) rankOrder(h []slot) {
	slices.SortFunc(h, func(a, b slot) int {
		if c := cmp.Compare(b.act, a.act); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	s.order = grown(s.order, len(h))
	for i, sl := range h {
		s.order[i] = sl.v
		s.rank[sl.v] = int32(i)
		s.heapIdx[sl.v] = unbumped
	}
	s.ranks = grown(s.ranks, (len(h)+63)/64)
	for w := range s.ranks {
		s.ranks[w] = ^uint64(0)
	}
	if r := len(h) % 64; r != 0 {
		s.ranks[len(s.ranks)-1] = 1<<r - 1
	}
	s.cursor = 0
	s.heap = h[:0]
}

// promote moves never-bumped v to the heap tier: into the heap if it is
// in the rank tier now, else out of both tiers until cancelUntil
// unassigns it.
func (s *solver) promote(v int) {
	s.heapIdx[v] = notInHeap
	r := s.rank[v]
	if w, b := r>>6, uint64(1)<<(r&63); s.ranks[w]&b != 0 {
		s.ranks[w] &^= b
		s.heapInsert(v)
	}
}

// release puts v back into its tier unless it is there already or
// excluded.
func (s *solver) release(v int) {
	switch s.heapIdx[v] {
	case unbumped:
		r := s.rank[v]
		w := int(r >> 6)
		s.ranks[w] |= 1 << (r & 63)
		s.cursor = min(s.cursor, w)
	case notInHeap:
		s.heapInsert(v)
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
// heap property over the whole heap, after a rescale, whose rounding can
// make two different activities equal and so hand their order to the
// initial rank.
func (s *solver) heapify() {
	h := s.heap
	for i := range h {
		h[i].act = s.activity[h[i].v]
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// heapInsert adds v, which must be marked notInHeap, to the heap.
func (s *solver) heapInsert(v int) {
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

// pickVar removes and returns the unassigned branching variable that
// ranks first, or -1 when every one is assigned. It drops the assigned
// variables it meets on the way: from the top of the heap, and from the
// cursor up in the rank tier.
func (s *solver) pickVar() int {
	for len(s.heap) > 0 && s.vals[PosLit(int(s.heap[0].v))] >= 0 {
		s.heapPop()
	}
	w := s.cursor
	for ; w < len(s.ranks); w++ {
		for word := s.ranks[w]; word != 0; word &= word - 1 {
			r := w<<6 | bits.TrailingZeros64(word)
			v := int(s.order[r])
			if s.vals[PosLit(v)] >= 0 {
				continue
			}
			s.ranks[w], s.cursor = word, w
			if len(s.heap) > 0 && before(s.heap[0], slot{act: s.activity[v], rank: int32(r)}) {
				return s.heapPop()
			}
			s.ranks[w] = word &^ (1 << (r & 63))
			return v
		}
		s.ranks[w] = 0
	}
	s.cursor = w
	if len(s.heap) == 0 {
		return -1
	}
	return s.heapPop()
}
