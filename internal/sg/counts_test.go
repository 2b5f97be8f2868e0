package sg

import (
	"fmt"
	"slices"
	"testing"
)

// componentClasses is the reference for epsClasses: connected components
// over the ε edges (dummy edges and edges of silenced signals), found by
// breadth-first search and numbered in order of their smallest member.
func componentClasses(g *Graph, silenced uint64) ([]int, int) {
	n := len(g.States)
	adj := make([][]int, n)
	for _, e := range g.Edges {
		if e.Sig < 0 || silenced&(1<<e.Sig) != 0 {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
	}
	cls := make([]int, n)
	for s := range cls {
		cls[s] = -1
	}
	nc := 0
	for s := range cls {
		if cls[s] >= 0 {
			continue
		}
		cls[s] = nc
		queue := []int{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if cls[y] < 0 {
					cls[y] = nc
					queue = append(queue, y)
				}
			}
		}
		nc++
	}
	return cls, nc
}

// TestEpsClassesMatchComponents pins the one ε-class rule Quotient and
// QuotientCounts share — merge along dummy edges and silenced signals'
// edges, number classes by smallest member — to a breadth-first search,
// on random graphs, with and without some edges turned into dummy edges,
// for no signal, each single signal, the inputs and every signal
// silenced.
func TestEpsClassesMatchComponents(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		withDummies := *g
		withDummies.Edges = append([]Edge(nil), g.Edges...)
		for i := range withDummies.Edges {
			if i%5 == 0 {
				withDummies.Edges[i].Sig = -1
			}
		}
		var inputs uint64
		masks := []uint64{0, g.Active}
		for i, b := range g.Base {
			masks = append(masks, 1<<i)
			if b.Input {
				inputs |= 1 << i
			}
		}
		masks = append(masks, inputs)
		for vi, h := range []*Graph{g, &withDummies} {
			for _, mask := range masks {
				name := fmt.Sprintf("graph %d variant %d mask %#x", gi, vi, mask)
				wantCls, wantN := componentClasses(h, mask)
				n := len(h.States)
				cls := make([]int, n)
				if got := h.epsClasses(mask, make([]int, n), cls); got != wantN {
					t.Fatalf("%s: %d classes, want %d", name, got, wantN)
				}
				for s := range cls {
					if cls[s] != wantCls[s] {
						t.Fatalf("%s: state %d in class %d, want %d", name, s, cls[s], wantCls[s])
					}
				}
			}
		}
	}
}

// TestQuotientEdgesMatchLegacy pins Quotient's edge list — the edges
// between classes, re-pointed, each (from, to, signal, direction) kept
// at its first occurrence in the original edge order — to the
// map-based deduplication it replaced, for no signal, each single
// signal and every signal silenced.
func TestQuotientEdgesMatchLegacy(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		masks := []uint64{0, g.Active}
		for i := range g.Base {
			masks = append(masks, 1<<i)
		}
		for _, mask := range masks {
			m, _ := g.Quotient(mask)
			seen := make(map[Edge]bool)
			var want []Edge
			for _, e := range g.Edges {
				ne := Edge{From: m.Cover[e.From], To: m.Cover[e.To], Sig: e.Sig, Dir: e.Dir}
				if ne.From != ne.To && !seen[ne] {
					seen[ne] = true
					want = append(want, ne)
				}
			}
			if !slices.Equal(m.Graph.Edges, want) || len(m.Graph.Edges) != cap(m.Graph.Edges) {
				t.Fatalf("graph %d mask %#x: %d edges (cap %d), legacy %d", gi, mask, len(m.Graph.Edges), cap(m.Graph.Edges), len(want))
			}
		}
	}
}
