package sat

// The branching order is a binary max-heap of variables, MiniSat's order
// heap (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003). Variable
// a ranks ahead of b when its activity is higher; equal activities fall
// back to the initial rank: the higher activity at setup (act0) first,
// then the lower variable index. That key is a strict total order, so the
// heap's top does not depend on the heap's layout, and it is the variable
// the reference linear scan in order_test.go picks: the first unassigned
// variable of highest activity over the variables sorted once by
// (initial activity descending, variable ascending).
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

// before reports whether variable a ranks ahead of b.
func (s *solver) before(a, b int32) bool {
	if x, y := s.activity[a], s.activity[b]; x != y {
		return x > y
	}
	if x, y := s.act0[a], s.act0[b]; x != y {
		return x > y
	}
	return a < b
}

func (s *solver) siftUp(i int) {
	h := s.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapIdx[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *solver) siftDown(i int) {
	h := s.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && s.before(h[r], h[c]) {
			c = r
		}
		if !s.before(h[c], v) {
			break
		}
		h[i] = h[c]
		s.heapIdx[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	s.heapIdx[v] = int32(i)
}

// heapify restores the heap property over the whole heap: after setup
// fills it, and after a rescale, whose rounding can make two different
// activities equal and so hand their order to the initial rank.
func (s *solver) heapify() {
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// heapInsert puts v back unless it is in the heap already or excluded.
func (s *solver) heapInsert(v int) {
	if s.heapIdx[v] != notInHeap {
		return
	}
	s.heap = append(s.heap, int32(v))
	s.siftUp(len(s.heap) - 1)
}

// heapPop removes and returns the top variable.
func (s *solver) heapPop() int {
	h := s.heap
	v := h[0]
	s.heapIdx[v] = notInHeap
	last := len(h) - 1
	s.heap = h[:last]
	if last > 0 {
		h[0] = h[last]
		s.siftDown(0)
	}
	return int(v)
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
