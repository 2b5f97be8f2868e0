package sat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// legacyOrder is the pre-heap branching order: the branching variables
// sorted once, at setup, by (activity descending, variable ascending).
func legacyOrder(s *solver, vars []int) []int {
	order := append([]int(nil), vars...)
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if s.activity[va] != s.activity[vb] {
			return s.activity[va] > s.activity[vb]
		}
		return va < vb
	})
	return order
}

// legacyPickVar is the pre-heap decision: a linear scan of the order for
// the first unassigned variable of highest activity. The order heap must
// pick exactly the same variable at every decision.
func legacyPickVar(s *solver, order []int) int {
	best, bestAct := -1, -1.0
	for _, v := range order {
		if s.value(PosLit(v)) < 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// orderHarness drives a solver's order heap directly, next to the
// legacy scan over the same variables.
type orderHarness struct {
	t     *testing.T
	s     *solver
	vars  []int     // the branching variables
	order []int     // legacyOrder at setup
	act0  []float64 // the activities at setup
}

// newOrderHarness sets up a fresh solver on a random 3-CNF (kind
// "fresh"), whose clause scores leave some initial activities tied so
// the variable index decides part of the initial rank, or a loaded
// Incremental step (kind "incremental").
func newOrderHarness(t *testing.T, kind string, rng *rand.Rand) *orderHarness {
	var s *solver
	var vars []int
	if kind == "fresh" {
		s = newSolver(randomCNF(rng, 30, 90, 3))
		for v := 0; v < s.f.NumVars; v++ {
			vars = append(vars, v)
		}
	} else {
		s, vars = orderIncremental(t, rng)
	}
	return &orderHarness{t: t, s: s, vars: vars, order: legacyOrder(s, vars),
		act0: append([]float64(nil), s.activity...)}
}

// check compares the heap's pick with the legacy scan's and verifies the
// heap and value-table invariants. The pick is put back afterwards, so
// checking does not disturb the state a later step sees.
func (h *orderHarness) check(step string) {
	h.t.Helper()
	s := h.s
	want := legacyPickVar(s, h.order)
	got := s.pickVar()
	if got != want {
		h.t.Fatalf("%s: heap picks %d, legacy scan picks %d", step, got, want)
	}
	if got >= 0 {
		s.heapInsert(got)
	}
	for i := 1; i < len(s.heap); i++ {
		if before(s.heap[i], s.heap[(i-1)/2]) {
			h.t.Fatalf("%s: heap property broken at %d", step, i)
		}
	}
	for i, sl := range s.heap {
		if v := sl.v; s.heapIdx[v] != int32(i) {
			h.t.Fatalf("%s: heapIdx[%d] = %d, want %d", step, v, s.heapIdx[v], i)
		}
		if sl.act != s.activity[sl.v] || sl.rank != s.rank[sl.v] {
			h.t.Fatalf("%s: slot of variable %d holds key (%g, %d), want (%g, %d)",
				step, sl.v, sl.act, sl.rank, s.activity[sl.v], s.rank[sl.v])
		}
	}
	live := make([]bool, len(s.heapIdx))
	for _, v := range h.vars {
		live[v] = true
		if s.value(PosLit(v)) < 0 && s.heapIdx[v] < 0 {
			h.t.Fatalf("%s: unassigned variable %d is not in the heap", step, v)
		}
	}
	for v := range s.heapIdx {
		if !live[v] && s.heapIdx[v] != excluded {
			h.t.Fatalf("%s: non-branching variable %d has heapIdx %d", step, v, s.heapIdx[v])
		}
		if p, n := s.value(PosLit(v)), s.value(NegLit(v)); !(p < 0 && n < 0) && p+n != 1 {
			h.t.Fatalf("%s: value table of variable %d: %d/%d", step, v, p, n)
		}
	}
}

// unassigned returns the branching variables that are not assigned.
func (h *orderHarness) unassigned() []int {
	var out []int
	for _, v := range h.vars {
		if h.s.value(PosLit(v)) < 0 {
			out = append(out, v)
		}
	}
	return out
}

// run applies steps random operations — decisions, enqueues standing in
// for propagation, conflicts and backjumps — checking the pick after
// each. A conflict bumps a few variables by the same increment and then
// decays, as analyze and the search loop do; once the increment dwarfs
// the initial activities, variables bumped together tie, and the
// initial rank orders them. It returns how many rescales fired.
func (h *orderHarness) run(rng *rand.Rand, steps int) (rescales int) {
	s := h.s
	for i := 0; i < steps; i++ {
		var step string
		switch op := rng.Intn(8); {
		case op < 2:
			step = "decide"
			want := legacyPickVar(s, h.order)
			v := s.pickVar()
			if v != want {
				h.t.Fatalf("step %d decide: heap picks %d, legacy scan picks %d", i, v, want)
			}
			if v >= 0 {
				s.limits = append(s.limits, len(s.trail))
				s.enqueue(Lit(2*v+rng.Intn(2)), -1)
			}
		case op < 4:
			step = "enqueue"
			if free := h.unassigned(); len(free) > 0 {
				s.enqueue(Lit(2*free[rng.Intn(len(free))]+rng.Intn(2)), -1)
			}
		case op < 7:
			step = "conflict"
			inc := s.actInc
			for k := 1 + rng.Intn(4); k > 0; k-- {
				s.bump(h.vars[rng.Intn(len(h.vars))])
			}
			if s.actInc < inc {
				rescales++
			}
			s.actInc /= 0.95
		default:
			step = "cancel"
			s.cancelUntil(rng.Intn(s.decisionLevel() + 1))
		}
		h.check(fmt.Sprintf("step %d %s", i, step))
	}
	return rescales
}

// orderIncremental loads an Incremental step with a guard, a retired
// group (its guard and auxiliary variables inert) and inert prefix
// variables, and returns the loaded solver with its branching variables.
func orderIncremental(t *testing.T, rng *rand.Rand) (*solver, []int) {
	const n = 40
	inc := NewIncremental()
	for v := 0; v < n; v++ {
		inc.NewVar()
	}
	for i := 0; i < 2*n; i++ {
		inc.AddPermanent(randomClause(rng, n/2, 3)...)
	}
	inc.BeginGroup()
	inc.NewGroupVar()
	inc.AddGroup(randomClause(rng, n/2, 3)...)
	inc.BeginGroup()
	aux := inc.NewGroupVar()
	for i := 0; i < n; i++ {
		c := randomClause(rng, n/2, 3)
		if i%4 == 0 {
			c[0] = PosLit(aux)
		}
		inc.AddGroup(c...)
	}
	for v := n / 2; v < n; v++ {
		inc.SetInert(v, true)
	}
	s := inc.load(inc.NumPermanent(), nil)
	if s == nil {
		t.Fatal("load: trivially unsatisfiable step")
	}
	var vars []int
	for v := 0; v < inc.NumVars(); v++ {
		if !inc.inert[v] && v != inc.guard {
			vars = append(vars, v)
		}
	}
	if len(vars) != n/2+1 {
		t.Fatalf("%d branching variables, want %d", len(vars), n/2+1)
	}
	return s, vars
}

// TestOrderHeapMatchesLegacyScan drives the order heap through seeded
// random decision, enqueue, bump and backjump sequences, on a fresh
// solver and on an Incremental step with inert variables and a guard,
// and checks after every step that it picks what the legacy linear scan
// picks. Each run starts actInc near 1e100, so rescales fire throughout.
func TestOrderHeapMatchesLegacyScan(t *testing.T) {
	rescales := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, kind := range []string{"fresh", "incremental"} {
			t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newOrderHarness(t, kind, rng)
				s := h.s
				h.check("setup")
				s.actInc = 1e99
				rescales += h.run(rng, 600)
			})
		}
	}
	if rescales == 0 {
		t.Fatal("no activity rescale fired")
	}
}

// TestOrderHeapRescaleTie pins why a rescale re-heapifies: two variables
// whose activities differ by one ulp before the rescale can round to the
// same value after it, and the tie then goes to the initial rank, which
// can reverse their order.
func TestOrderHeapRescaleTie(t *testing.T) {
	for _, kind := range []string{"fresh", "incremental"} {
		t.Run(kind, func(t *testing.T) {
			h := newOrderHarness(t, kind, rand.New(rand.NewSource(3)))
			s := h.s
			// a ranks ahead of b by initial activity alone (a has the higher
			// index); c is assigned, as every variable a conflict bumps is.
			a, b := -1, -1
			for i := 1; i < len(h.order) && a < 0; i++ {
				for _, w := range h.order[i+1:] {
					if v := h.order[i]; h.act0[v] > h.act0[w] && v > w {
						a, b = v, w
						break
					}
				}
			}
			if a < 0 {
				t.Fatal("no pair ranked by initial activity against index order")
			}
			c := h.order[0]
			s.limits = append(s.limits, len(s.trail))
			s.enqueue(PosLit(c), -1)

			// Find adjacent floats below 1e100 that the rescale rounds to
			// one value, and give the higher one to b.
			x := math.Ldexp(1.5, 331)
			for i := 0; x*1e-100 != math.Nextafter(x, math.Inf(1))*1e-100; i++ {
				if i == 1000 {
					t.Fatal("no adjacent pair collides under the rescale")
				}
				x = math.Nextafter(x, math.Inf(1))
			}
			s.activity[a], s.activity[b] = x, math.Nextafter(x, math.Inf(1))
			s.heapify()
			h.check("before rescale")
			if got := s.pickVar(); got != b {
				t.Fatalf("before rescale: pick %d, want b=%d", got, b)
			}
			s.heapInsert(b)

			s.actInc = 1.1e100
			s.bump(c)
			if s.activity[a] != s.activity[b] {
				t.Fatalf("rescale left %g and %g apart", s.activity[a], s.activity[b])
			}
			h.check("after rescale")
			if got := s.pickVar(); got != a {
				t.Fatalf("after rescale: pick %d, want a=%d (the tie goes to the initial rank)", got, a)
			}
		})
	}
}
