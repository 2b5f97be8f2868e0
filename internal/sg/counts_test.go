package sg

import (
	"fmt"
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
