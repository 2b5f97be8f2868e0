package sg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asyncsyn/internal/stg"
)

// permuteStates renumbers the states of g by perm (perm[old] = new) and
// shuffles the edge order, preserving the graph's meaning exactly.
func permuteStates(g *Graph, perm []int, rng *rand.Rand) *Graph {
	n := len(g.States)
	out := &Graph{
		Name:    g.Name,
		Base:    g.Base,
		Active:  g.Active,
		States:  make([]State, n),
		Initial: perm[g.Initial],
	}
	for s := 0; s < n; s++ {
		out.States[perm[s]] = g.States[s]
	}
	for _, ss := range g.StateSigs {
		ph := make([]Phase, n)
		for s := 0; s < n; s++ {
			ph[perm[s]] = ss.Phases[s]
		}
		out.StateSigs = append(out.StateSigs, StateSignal{Name: ss.Name, Phases: ph})
	}
	order := rng.Perm(len(g.Edges))
	for _, ei := range order {
		e := g.Edges[ei]
		out.Edges = append(out.Edges, Edge{From: perm[e.From], To: perm[e.To], Sig: e.Sig, Dir: e.Dir})
	}
	out.IndexEdges()
	return out
}

// permutePairs remaps conflict pairs through perm, keeping the A < B
// convention and re-sorting so the list stays deterministic.
func permutePairs(ps []Pair, perm []int) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		a, b := perm[p.A], perm[p.B]
		if a > b {
			a, b = b, a
		}
		out[i] = Pair{A: a, B: b}
	}
	return out
}

// TestSignatureTracksRenumbering checks the replay guarantee behind the
// cache key: renumbering the states (and reordering the edges) of a
// problem moves its signature, because a cached model decodes column
// for column only against the same layout, and the signature of one
// problem is reproducible.
func TestSignatureTracksRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 25; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromSTG(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		conf := Analyze(g)
		sig := SignatureOf(g, conf)

		n := len(g.States)
		perm := rng.Perm(n)
		identity := true
		for i, p := range perm {
			identity = identity && i == p
		}
		pg := permuteStates(g, perm, rng)
		psig := SignatureOf(pg, &Conflicts{
			CSC:        permutePairs(conf.CSC, perm),
			USC:        permutePairs(conf.USC, perm),
			LowerBound: conf.LowerBound,
		})
		if !identity && n > 1 && psig == sig {
			t.Fatalf("seed %d: signature blind to state renumbering", seed)
		}
		if again := SignatureOf(g, conf); again != sig {
			t.Fatalf("seed %d: SignatureOf not deterministic", seed)
		}
	}
}

// TestSignatureSensitive checks the signature distinguishes genuinely
// different problems: flipping an edge direction, renaming a signal,
// flipping an input flag, or dropping a conflict pair must all move it.
func TestSignatureSensitive(t *testing.T) {
	spec, err := stg.Random(3, stg.RandomOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromSTG(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conf := Analyze(g)
	base := SignatureOf(g, conf)

	mut := func(name string, f func(h *Graph, c *Conflicts)) {
		h := permuteStates(g, identityPerm(len(g.States)), rand.New(rand.NewSource(1)))
		c := &Conflicts{
			CSC:        append([]Pair(nil), conf.CSC...),
			USC:        append([]Pair(nil), conf.USC...),
			LowerBound: conf.LowerBound,
		}
		f(h, c)
		if SignatureOf(h, c) == base {
			t.Errorf("%s: signature blind to the change", name)
		}
	}
	mut("edge direction", func(h *Graph, c *Conflicts) {
		h.Edges[0].Dir ^= 1
	})
	mut("signal name", func(h *Graph, c *Conflicts) {
		b := append([]SignalInfo(nil), h.Base...)
		b[0].Name += "x"
		h.Base = b
	})
	mut("input flag", func(h *Graph, c *Conflicts) {
		b := append([]SignalInfo(nil), h.Base...)
		b[0].Input = !b[0].Input
		h.Base = b
	})
	if len(conf.CSC) > 0 {
		mut("conflict set", func(h *Graph, c *Conflicts) {
			c.CSC = c.CSC[1:]
		})
	}
	if SignatureOf(g, nil) == base && len(conf.CSC)+len(conf.USC) > 0 {
		t.Error("nil conflicts hash equal to analyzed conflicts")
	}
}

// TestAdjacencyIsEdgesGrouped pins the fact that lets SignatureOf leave
// Out and In unread: on every graph the package builds (elaborated,
// cloned, quotiented, expanded), Out(s) is exactly the indices of the
// edges leaving s and In(s) those entering s, in ascending order. Two
// graphs with equal edge lists therefore have equal adjacency.
func TestAdjacencyIsEdgesGrouped(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		n := len(g.States)
		if len(g.out.off) != n+1 || len(g.in.off) != n+1 {
			t.Fatalf("%s: %d states, %d Out and %d In offsets", name, n, len(g.out.off), len(g.in.off))
		}
		out, in := make([][]int32, n), make([][]int32, n)
		for i, e := range g.Edges {
			out[e.From] = append(out[e.From], int32(i))
			in[e.To] = append(in[e.To], int32(i))
		}
		for s := 0; s < n; s++ {
			if !slices.Equal(g.Out(s), out[s]) || !slices.Equal(g.In(s), in[s]) {
				t.Fatalf("%s: state %d has Out %v In %v, edges give %v and %v", name, s, g.Out(s), g.In(s), out[s], in[s])
			}
		}
	}
	graphs := 0
	for seed := int64(0); seed < 25; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromSTG(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), g)
		check(fmt.Sprintf("seed %d clone", seed), g.Clone())
		ex, err := g.Expand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d expansion", seed), ex)
		graphs += 3
		for i, b := range g.Base {
			if !b.Input {
				continue
			}
			if m, ok := g.Quotient(1 << i); ok {
				check(fmt.Sprintf("seed %d quotient of %s", seed, b.Name), m.Graph)
				graphs++
			}
		}
	}
	t.Logf("%d graphs checked", graphs)
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// BenchmarkQuotient measures the ε-quotient on a random state graph,
// silencing half the signals — the construction behind every module
// (one quotient per module; input-set probes only count, see
// QuotientCounts).
func BenchmarkQuotient(b *testing.B) {
	spec, err := stg.Random(11, stg.RandomOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromSTG(spec, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var mask uint64
	for i := 0; i < len(g.Base); i += 2 {
		if g.Base[i].Input {
			mask |= 1 << i
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Quotient(mask); !ok {
			b.Fatal("quotient failed")
		}
	}
}
