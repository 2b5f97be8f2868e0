package sg

import (
	"math/bits"
	"sort"
)

// Merged is the result of an ε-quotient: the modular state graph plus the
// cover relation back to the originating graph (the paper's §3.4
// definition: cover(M_k) is the merged state that M_k collapses into).
type Merged struct {
	Graph *Graph
	Orig  *Graph
	// Cover maps each original state index to its merged state index.
	Cover []int
	// Members lists, per merged state, the original states it covers.
	Members [][]int
}

// Quotient silences the transitions of every base signal in silencedMask
// (labelling them ε, together with any dummy edges), merges ε-connected
// states, joins state-signal phases with the Figure-3 calculus, and
// returns the modular state graph. ok is false when some ε-class has an
// inconsistent phase join (the paper's guard: a signal whose removal puts
// an Up and a Down of some state signal in one class cannot be removed).
func (g *Graph) Quotient(silencedMask uint64) (m *Merged, ok bool) {
	// The union-find parent array, the member counts and the edge buffer
	// are pooled scratch (scratchFor): one quotient is built per module,
	// about 90 per Table-1 pass, and none of this scratch escapes.
	n := len(g.States)
	sc := scratchFor(n)
	defer releaseScratch(n, sc)
	cover := make([]int, n)
	nm := g.epsClasses(silencedMask, sc.intsFor(n), cover)

	// Member lists in ascending state order, carved out of one backing
	// array sized by a counting pass instead of growing per append.
	size := sc.ints2For(nm)
	clear(size)
	for _, mi := range cover {
		size[mi]++
	}
	members := make([][]int, nm)
	backing := make([]int, n)
	off := 0
	for mi, sz := range size {
		members[mi] = backing[off : off : off+sz]
		off += sz
	}
	for s, mi := range cover {
		members[mi] = append(members[mi], s)
	}

	active := g.Active &^ silencedMask
	mg := &Graph{
		Name:    g.Name,
		Base:    append([]SignalInfo(nil), g.Base...),
		Active:  active,
		States:  make([]State, len(members)),
		Initial: cover[g.Initial],
	}

	// Merged codes: members agree on all active bits because ε edges only
	// move silenced signals.
	for mi, ms := range members {
		mg.States[mi] = State{Code: g.States[ms[0]].Code & active}
	}

	// Phase joins.
	allOK := true
	for _, ss := range g.StateSigs {
		joined := make([]Phase, len(members))
		for mi, ms := range members {
			var set PhaseSet
			for _, s := range ms {
				set = set.Add(ss.Phases[s])
			}
			p, jok := JoinPhases(set)
			if !jok {
				allOK = false
			}
			joined[mi] = p
		}
		mg.StateSigs = append(mg.StateSigs, StateSignal{Name: ss.Name, Phases: joined})
	}

	// Edges: keep the edges between classes, re-pointed and
	// deduplicated. An ε edge lies inside its class; every other edge
	// flips an active bit, on which a class's members agree, so it joins
	// two classes. The dedup key packs (from, to, sig, dir) into a
	// uint64 — from and to index merged states (< n) and sig indexes
	// base signals (< MaxSignals) — and the set of keys seen is an
	// open-addressed table in pooled scratch, at most half full, where 0
	// marks an empty slot: no key is 0, since a kept edge joins two
	// different classes. The survivors collect in scratch and are copied
	// out at their exact count.
	seen := sc.u64sFor(max(16, 2<<bits.Len(uint(len(g.Edges)))))
	clear(seen)
	shift := 64 - bits.Len(uint(len(seen)-1))
	mod := len(seen) - 1
	nm64 := uint64(nm)
	kept := sc.edges[:0]
	for _, e := range g.Edges {
		ne := Edge{From: cover[e.From], To: cover[e.To], Sig: e.Sig, Dir: e.Dir}
		if ne.From == ne.To {
			continue
		}
		k := (uint64(ne.From)*nm64+uint64(ne.To))<<7 | uint64(ne.Sig)<<1 | uint64(ne.Dir)
		i := int((k * 0x9e3779b97f4a7c15) >> shift)
		for seen[i] != 0 && seen[i] != k {
			i = (i + 1) & mod
		}
		if seen[i] == k {
			continue
		}
		seen[i] = k
		kept = append(kept, ne)
	}
	mg.Edges = make([]Edge, len(kept))
	copy(mg.Edges, kept)
	sc.edges = kept
	mg.IndexEdges()

	return &Merged{Graph: mg, Orig: g, Cover: cover, Members: members}, allOK
}

// epsClasses computes the ε-classes of g with the signals in silenced
// removed: the sets of states joined by ε edges, which are the dummy
// edges (Sig < 0) and the edges of silenced signals. cls[s] receives
// the class of state s, classes numbered 0, 1, ... in order of their
// smallest member; parent is union-find scratch. Both slices have one
// entry per state. It returns the number of classes. Quotient and
// QuotientCounts both merge through here, so the class rule is written
// once.
func (g *Graph) epsClasses(silenced uint64, parent, cls []int) int {
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		if e.Sig >= 0 && silenced&(1<<e.Sig) == 0 {
			continue
		}
		// The smaller root wins, so every root is its class's smallest
		// member.
		ra, rb := find(e.From), find(e.To)
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	// A root is numbered when the scan reaches it, before any other
	// member of its class, which then takes the root's number.
	nc := 0
	for s := range cls {
		if r := find(s); r != s {
			cls[s] = cls[r]
			continue
		}
		cls[s] = nc
		nc++
	}
	return nc
}

// quotientSpillStates is the spill threshold of scratchFor, which gives
// Quotient and the counting evaluator their scratch: graphs above this
// state count bypass scratchPool entirely so their arenas are released
// to the GC when the call finishes, keeping the pool's resident
// footprint bounded by typical module sizes rather than the largest
// graph of the run.
const quotientSpillStates = 1 << 16

// ImpliedOf returns the per-merged-state implied-value probe for signal o
// needed by OutputConflicts: the union of the implied values of the
// covered original states.
func (m *Merged) ImpliedOf(o int) func(state int) (has0, has1 bool) {
	memo := make([][2]bool, len(m.Members))
	for mi, ms := range m.Members {
		for _, s := range ms {
			if m.Orig.ImpliedValue(s, o) == 1 {
				memo[mi][1] = true
			} else {
				memo[mi][0] = true
			}
		}
	}
	return func(state int) (bool, bool) { return memo[state][0], memo[state][1] }
}

// SignalNamesIn lists the base signal names selected by mask, sorted.
func (g *Graph) SignalNamesIn(mask uint64) []string {
	var out []string
	for i, b := range g.Base {
		if mask&(1<<i) != 0 {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}
