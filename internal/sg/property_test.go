package sg

import (
	"math/rand"
	"testing"

	"asyncsyn/internal/stg"
)

func TestSCCsHandshake(t *testing.T) {
	sgr, _ := FromSTG(parse(t, handshake), Options{})
	if !sgr.StronglyConnected() {
		t.Fatalf("cyclic handshake must be strongly connected")
	}
	if len(sgr.Deadlocks()) != 0 {
		t.Fatalf("handshake has deadlocks")
	}
}

func TestSCCsDetectsDeadEnd(t *testing.T) {
	sgr, _ := FromSTG(parse(t, handshake), Options{})
	// Graft an artificial dead-end state.
	sgr.States = append(sgr.States, State{Code: 0b11})
	sgr.Edges = append(sgr.Edges, Edge{From: 0, To: len(sgr.States) - 1, Sig: 0, Dir: stg.Rising})
	sgr.IndexEdges()
	if sgr.StronglyConnected() {
		t.Fatalf("dead end not detected")
	}
	if len(sgr.Deadlocks()) != 1 {
		t.Fatalf("deadlock not listed")
	}
	if len(sgr.SCCs()) != 2 {
		t.Fatalf("SCC count = %d", len(sgr.SCCs()))
	}
}

// TestPropertyRandomGraphs checks structural invariants across the
// random STG population:
//   - state graphs are strongly connected and deadlock-free,
//   - quotients by arbitrary signal subsets partition the states and
//     preserve active code bits within classes,
//   - every graph is output persistent (the generator composes only
//     choice-free output structures).
func TestPropertyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 40; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromSTG(spec, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.StronglyConnected() {
			t.Fatalf("seed %d: not strongly connected", seed)
		}
		if len(g.Deadlocks()) != 0 {
			t.Fatalf("seed %d: deadlocks", seed)
		}
		if !g.OutputPersistent() {
			t.Fatalf("seed %d: output persistency violated", seed)
		}

		// Random silencing masks (never the whole signal set).
		for trial := 0; trial < 5; trial++ {
			mask := uint64(rng.Intn(1<<len(g.Base))) & g.Active
			if mask == g.Active {
				mask &^= 1
			}
			m, ok := g.Quotient(mask)
			if !ok {
				continue // no state signals yet, joins cannot fail
			}
			// Partition: every state in exactly one class.
			seen := make(map[int]bool)
			for mi, ms := range m.Members {
				for _, s := range ms {
					if seen[s] {
						t.Fatalf("seed %d: state in two classes", seed)
					}
					seen[s] = true
					if m.Cover[s] != mi {
						t.Fatalf("seed %d: cover mismatch", seed)
					}
					// Active bits agree with the class representative.
					if g.States[s].Code&m.Graph.Active != m.Graph.States[mi].Code {
						t.Fatalf("seed %d: class code mismatch", seed)
					}
				}
			}
			if len(seen) != g.NumStates() {
				t.Fatalf("seed %d: classes cover %d of %d states", seed, len(seen), g.NumStates())
			}
			// Edge images: every merged edge's label is unsilenced.
			for _, e := range m.Graph.Edges {
				if e.Sig < 0 || mask&(1<<e.Sig) != 0 {
					t.Fatalf("seed %d: silenced edge in quotient", seed)
				}
			}
		}
	}
}

// TestPropertyExpansionInvariants: expanding hand-inserted legal phases
// preserves reachability shape — no deadlocks, strong connectivity, and
// every expanded state's origin is valid.
func TestPropertyExpansionInvariants(t *testing.T) {
	for seed := int64(40); seed < 60; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromSTG(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Insert a constant-0 signal (trivially legal) and a "rising at
		// the end of the a+ phase" style column if legal; fall back to
		// constant.
		phases := make([]Phase, g.NumStates())
		g.StateSigs = append(g.StateSigs, StateSignal{Name: "z", Phases: phases})
		ex, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if ex.NumStates() != g.NumStates() {
			t.Fatalf("seed %d: constant signal changed state count", seed)
		}
		for s, o := range ex.Origin {
			if o < 0 || o >= g.NumStates() {
				t.Fatalf("seed %d: bad origin for %d", seed, s)
			}
			if ex.States[s].Code&(uint64(1)<<len(g.Base)-1)&g.Active != g.States[o].Code&g.Active {
				t.Fatalf("seed %d: expanded code disagrees with origin", seed)
			}
		}
		if !ex.StronglyConnected() || len(ex.Deadlocks()) != 0 {
			t.Fatalf("seed %d: expansion broke liveness", seed)
		}
	}
}
