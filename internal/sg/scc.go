package sg

// StronglyConnected reports whether every state can reach every other —
// the liveness shape a cyclic speed-independent specification must have
// (a state graph with dead ends or unreachable strongly connected
// components describes a circuit that can stop responding). Tarjan's
// algorithm, iterative to survive deep graphs.
func (g *Graph) StronglyConnected() bool {
	return len(g.SCCs()) == 1
}

// SCCs returns the strongly connected components as state-index slices,
// in reverse topological order of the condensation.
func (g *Graph) SCCs() [][]int {
	n := len(g.States)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack   []int
		sccs    [][]int
		counter int
	)

	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		work := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(work) > 0 {
			f := &work[len(work)-1]
			if out := g.Out(f.v); f.ei < len(out) {
				w := g.Edges[out[f.ei]].To
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}

// Deadlocks lists states with no outgoing edges.
func (g *Graph) Deadlocks() []int {
	var out []int
	for s := range g.States {
		if len(g.Out(s)) == 0 {
			out = append(out, s)
		}
	}
	return out
}
