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
// the first unassigned variable of highest activity. The two-tier order
// must pick exactly the same variable at every decision.
func legacyPickVar(s *solver, order []int) int {
	best, bestAct := -1, -1.0
	for _, v := range order {
		if s.value(PosLit(v)) < 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// orderHarness drives a solver's branching order directly, next to the
// legacy scan over the same variables. It changes activities only
// through bump and setActivity, so the never-bumped variables keep the
// activities the rank tier rests on.
type orderHarness struct {
	t     *testing.T
	s     *solver
	vars  []int     // the branching variables
	order []int     // legacyOrder at setup
	act0  []float64 // the activities at setup
}

// newOrderHarness sets up a fresh solver on a random 3-CNF (kind
// "fresh", or "wide" with 100 variables, so the rank bitset spans two
// words), whose clause scores leave some initial activities tied so the
// variable index decides part of the initial rank, or a loaded
// Incremental step (kind "incremental").
func newOrderHarness(t *testing.T, kind string, rng *rand.Rand) *orderHarness {
	var s *solver
	var vars []int
	switch kind {
	case "fresh", "wide":
		n := 30
		if kind == "wide" {
			n = 100
		}
		s = newSolver(randomCNF(rng, n, 3*n, 3), nil)
		for v := 0; v < s.f.NumVars; v++ {
			vars = append(vars, v)
		}
	default:
		s, vars = orderIncremental(t, rng)
	}
	return &orderHarness{t: t, s: s, vars: vars, order: legacyOrder(s, vars),
		act0: append([]float64(nil), s.activity...)}
}

// setActivity gives v activity x, moving it to the heap tier first if no
// conflict has bumped it yet, and restores the heap.
func (h *orderHarness) setActivity(v int, x float64) {
	s := h.s
	if s.heapIdx[v] == unbumped {
		s.promote(v)
	}
	s.activity[v] = x
	s.heapify()
}

// inRankTier reports whether v's rank bit is set.
func inRankTier(s *solver, v int) bool {
	r := s.rank[v]
	return s.ranks[r>>6]&(1<<(r&63)) != 0
}

// check compares the order's pick with the legacy scan's and verifies the
// invariants of both tiers and of the value table. The pick is put back
// afterwards, so checking does not disturb the state a later step sees.
func (h *orderHarness) check(step string) {
	h.t.Helper()
	s := h.s
	want := legacyPickVar(s, h.order)
	got := s.pickVar()
	if got != want {
		h.t.Fatalf("%s: order picks %d, legacy scan picks %d", step, got, want)
	}
	if got >= 0 {
		s.release(got)
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

	// The rank tier: order is a permutation of the branching variables
	// and inverts rank; only never-bumped variables have their bit set;
	// no bit is set below the cursor's word or past the last rank; and
	// the never-bumped variables' activities fall with rank, which is
	// what makes the lowest set rank the tier's best variable.
	if len(s.order) != len(h.vars) {
		h.t.Fatalf("%s: order holds %d variables, want the %d branching ones", step, len(s.order), len(h.vars))
	}
	live := make([]bool, len(s.heapIdx))
	for _, v := range h.vars {
		live[v] = true
		if s.order[s.rank[v]] != int32(v) {
			h.t.Fatalf("%s: order[rank[%d]] = %d", step, v, s.order[s.rank[v]])
		}
		if s.value(PosLit(v)) >= 0 {
			continue
		}
		if i := s.heapIdx[v]; !(i == unbumped && inRankTier(s, v)) && i < 0 {
			h.t.Fatalf("%s: unassigned variable %d (heapIdx %d) is in neither tier", step, v, i)
		}
	}
	for w, word := range s.ranks {
		if w < s.cursor && word != 0 {
			h.t.Fatalf("%s: rank word %d below the cursor %d is %#x", step, w, s.cursor, word)
		}
		for r := w * 64; r < (w+1)*64; r++ {
			if word&(1<<(r&63)) == 0 {
				continue
			}
			if r >= len(s.order) {
				h.t.Fatalf("%s: rank bit %d set past the last rank %d", step, r, len(s.order)-1)
			}
			if v := s.order[r]; s.heapIdx[v] != unbumped {
				h.t.Fatalf("%s: bumped variable %d (heapIdx %d) has its rank bit set", step, v, s.heapIdx[v])
			}
		}
	}
	prev := math.Inf(1)
	for _, v := range s.order {
		if s.heapIdx[v] != unbumped {
			continue
		}
		if s.activity[v] > prev {
			h.t.Fatalf("%s: never-bumped variable %d has activity %g above an earlier rank's %g",
				step, v, s.activity[v], prev)
		}
		prev = s.activity[v]
	}

	// Inert and guard variables sit in neither tier.
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

// runStats counts what a run exercised.
type runStats struct {
	rescales int
	picks    int
	// rankPicks counts the decisions taken from the rank tier, and
	// rankWins those among them made while the heap held an unassigned
	// variable, so the two tiers' best were compared.
	rankPicks, rankWins int
	// rewinds counts the backjumps that moved the rank cursor back.
	rewinds int
}

// opMix weighs a run's operations.
type opMix struct{ decide, enqueue, conflict, cancel int }

// run applies steps random operations, drawn by mix — decisions,
// enqueues standing in for propagation, conflicts and backjumps —
// checking the pick after each. A conflict bumps a few variables of pool
// by the same increment and then decays, as analyze and the search loop
// do; once the increment dwarfs the initial activities, variables bumped
// together tie, and the initial rank orders them. A backjump goes to the
// level jump draws from the current one.
func (h *orderHarness) run(rng *rand.Rand, steps int, mix opMix, pool []int, jump func(level int) int) (st runStats) {
	s := h.s
	for i := 0; i < steps; i++ {
		var step string
		switch op := rng.Intn(mix.decide + mix.enqueue + mix.conflict + mix.cancel); {
		case op < mix.decide:
			step = "decide"
			want := legacyPickVar(s, h.order)
			heapLive := false
			for _, sl := range s.heap {
				heapLive = heapLive || s.value(PosLit(int(sl.v))) < 0
			}
			v := s.pickVar()
			if v != want {
				h.t.Fatalf("step %d decide: order picks %d, legacy scan picks %d", i, v, want)
			}
			if v >= 0 {
				st.picks++
				if s.heapIdx[v] == unbumped {
					st.rankPicks++
					if heapLive {
						st.rankWins++
					}
				}
				s.limits = append(s.limits, len(s.trail))
				s.enqueue(Lit(2*v+rng.Intn(2)), -1)
			}
		case op < mix.decide+mix.enqueue:
			step = "enqueue"
			if free := h.unassigned(); len(free) > 0 {
				s.enqueue(Lit(2*free[rng.Intn(len(free))]+rng.Intn(2)), -1)
			}
		case op < mix.decide+mix.enqueue+mix.conflict:
			step = "conflict"
			inc := s.actInc
			for k := 1 + rng.Intn(4); k > 0; k-- {
				s.bump(pool[rng.Intn(len(pool))])
			}
			if s.actInc < inc {
				st.rescales++
			}
			s.actInc /= 0.95
		default:
			step = "cancel"
			cur := s.cursor
			s.cancelUntil(jump(s.decisionLevel()))
			if s.cursor < cur {
				st.rewinds++
			}
		}
		h.check(fmt.Sprintf("step %d %s", i, step))
	}
	return st
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
	perm := newPermBlock(n)
	for i := 0; i < 2*n; i++ {
		perm.add(randomClause(rng, n/2, 3)...)
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
	s := inc.load(perm.block(perm.len()), nil)
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

// TestOrderHeapMatchesLegacyScan drives the branching order through
// seeded random decision, enqueue, bump and backjump sequences, on a
// fresh solver and on an Incremental step with inert variables and a
// guard, and checks after every step that it picks what the legacy
// linear scan picks. Each run starts actInc near 1e100, so rescales fire
// throughout.
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
				rescales += h.run(rng, 600, opMix{2, 2, 3, 1}, h.vars, func(level int) int { return rng.Intn(level + 1) }).rescales
			})
		}
	}
	if rescales == 0 {
		t.Fatal("no activity rescale fired")
	}
}

// TestOrderRankTier drives the order as TestOrderHeapMatchesLegacyScan
// does, but conflicts bump only a fixed quarter of the variables, and
// decisions outnumber backjumps, which go to the middle half of the
// levels, so the trail grows deep, as in a real search. Then most picks
// come from the rank tier, some of them against a live heap, and the
// rank cursor moves back and forth across the bitset's words.
func TestOrderRankTier(t *testing.T) {
	var total runStats
	for seed := int64(1); seed <= 8; seed++ {
		for _, kind := range []string{"wide", "fresh", "incremental"} {
			t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newOrderHarness(t, kind, rng)
				h.check("setup")
				var pool []int
				for i, v := range h.vars {
					if i%4 == 0 {
						pool = append(pool, v)
					}
				}
				st := h.run(rng, 2000, opMix{32, 4, 4, 1}, pool, func(level int) int { return level/4 + rng.Intn(level/2+1) })
				if 2*st.rankPicks <= st.picks {
					t.Errorf("%d of %d picks came from the rank tier, want most", st.rankPicks, st.picks)
				}
				total.rankWins += st.rankWins
				if kind == "wide" {
					total.rewinds += st.rewinds
				}
			})
		}
	}
	if total.rankWins == 0 {
		t.Error("the rank tier never won against a live heap")
	}
	if total.rewinds == 0 {
		t.Error("no backjump moved the rank cursor back")
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
			h.setActivity(a, x)
			h.setActivity(b, math.Nextafter(x, math.Inf(1)))
			h.check("before rescale")
			if got := s.pickVar(); got != b {
				t.Fatalf("before rescale: pick %d, want b=%d", got, b)
			}
			s.release(b)

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

// TestOrderRescaleTieAcrossTiers: a rescale can round a bumped variable's
// activity onto a never-bumped variable's, one ulp away before it, and
// the tie must then go to the lower rank, whichever tier holds it. Every
// other branching variable is assigned, so the pick is between the two.
func TestOrderRescaleTieAcrossTiers(t *testing.T) {
	for _, kind := range []string{"fresh", "incremental"} {
		for _, bumpedFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/bumped-ranks-first=%v", kind, bumpedFirst), func(t *testing.T) {
				h := newOrderHarness(t, kind, rand.New(rand.NewSource(3)))
				s := h.s
				// c triggers the rescales. Find a never-bumped u, a b on
				// the wanted side of it in rank, and a number of earlier
				// rescales after which u's activity y has a neighbour x, on
				// the side that puts the higher rank ahead, that the next
				// rescale rounds onto y.
				c := h.order[0]
				dir := math.Inf(1) // b ranks after u: b must be ahead before
				if bumpedFirst {
					dir = math.Inf(-1)
				}
				u, b, prior := -1, -1, 0
				var x float64
			search:
				for prior = 0; prior < 3; prior++ {
					for _, cand := range h.order[1:] {
						y := h.act0[cand]
						for j := 0; j < prior; j++ {
							y *= 1e-100
						}
						x = math.Nextafter(y, dir)
						if x*1e-100 != y*1e-100 || y*1e-100 == 0 {
							continue
						}
						for _, w := range h.order[1:] {
							if w != cand && (s.rank[w] < s.rank[cand]) == bumpedFirst {
								u, b = cand, w
								break search
							}
						}
					}
				}
				if u < 0 {
					t.Fatal("no never-bumped activity has a neighbour the rescale rounds onto it")
				}
				s.limits = append(s.limits, len(s.trail))
				for _, v := range h.vars {
					if v != u && v != b {
						s.enqueue(PosLit(v), -1)
					}
				}
				for j := 0; j < prior; j++ {
					s.actInc = 1.1e100
					s.bump(c)
				}
				h.setActivity(b, x)
				h.check("before rescale")
				ahead, behind := b, u
				if bumpedFirst {
					ahead, behind = u, b
				}
				if got := s.pickVar(); got != ahead {
					t.Fatalf("before rescale: pick %d, want %d", got, ahead)
				}
				s.release(ahead)

				s.actInc = 1.1e100
				s.bump(c)
				if s.heapIdx[u] != unbumped || s.heapIdx[b] < 0 {
					t.Fatalf("u (heapIdx %d) must be never bumped and b (heapIdx %d) in the heap", s.heapIdx[u], s.heapIdx[b])
				}
				if s.activity[u] != s.activity[b] {
					t.Fatalf("rescale left %g and %g apart", s.activity[u], s.activity[b])
				}
				h.check("after rescale")
				if got := s.pickVar(); got != behind {
					t.Fatalf("after rescale: pick %d, want %d (the tie goes to the lower rank)", got, behind)
				}
			})
		}
	}
}
