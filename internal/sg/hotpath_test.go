package sg

import (
	"reflect"
	"sort"
	"testing"

	"asyncsyn/internal/stg"
)

// legacyCodeGroups is the pre-bitset reference implementation of
// codeGroups: FullCode per state, hash-map bucketing, sorted keys. The
// radix-sorted production path must match it bit for bit.
func legacyCodeGroups(g *Graph) ([]uint64, map[uint64][]int) {
	n := len(g.States)
	groups := make(map[uint64][]int)
	for s := 0; s < n; s++ {
		c := g.FullCode(s)
		groups[c] = append(groups[c], s)
	}
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, groups
}

// propertyGraphs builds the test corpus: random STGs across seeds (the
// generator mixes all three branch classes — pulse, handshake, double
// pulse — across this seed range) plus handshake ladders, with a state
// signal column appended to exercise FullCode's upper bits.
func propertyGraphs(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	for seed := int64(1); seed <= 40; seed++ {
		sp, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatalf("random %d: %v", seed, err)
		}
		g, err := FromSTG(sp, Options{})
		if err != nil {
			continue // some seeds exceed bounds; plenty remain
		}
		out = append(out, g)
	}
	for k := 1; k <= 3; k++ {
		sp, err := stg.Handshakes("", k, 2)
		if err != nil {
			t.Fatalf("handshakes %d: %v", k, err)
		}
		g, err := FromSTG(sp, Options{})
		if err != nil {
			t.Fatalf("sg handshakes %d: %v", k, err)
		}
		out = append(out, g)
	}
	if len(out) < 20 {
		t.Fatalf("only %d property graphs generated", len(out))
	}
	// Append a synthetic state-signal column to half the graphs so full
	// codes exercise the bits above the base signals.
	for i, g := range out {
		if i%2 == 0 {
			continue
		}
		ph := make([]Phase, len(g.States))
		for s := range ph {
			switch s % 4 {
			case 0:
				ph[s] = P0
			case 1:
				ph[s] = P1
			case 2:
				ph[s] = PUp
			default:
				ph[s] = PDown
			}
		}
		g.StateSigs = append(g.StateSigs, StateSignal{Name: "t0", Phases: ph})
	}
	return out
}

// TestCodeGroupsMatchesLegacy pins the radix-sorted code grouping and
// the one-pass enabled-mask column bit-identical to the legacy map-based
// path on random STGs.
func TestCodeGroupsMatchesLegacy(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		keys, groups := codeGroups(g)
		lkeys, lgroups := legacyCodeGroups(g)
		if !reflect.DeepEqual(keys, lkeys) {
			t.Fatalf("graph %d: keys diverge\n new %v\n old %v", gi, keys, lkeys)
		}
		for ki, k := range keys {
			if !reflect.DeepEqual(groups[ki], lgroups[k]) {
				t.Fatalf("graph %d code %b: members diverge\n new %v\n old %v",
					gi, k, groups[ki], lgroups[k])
			}
		}
		enabled := g.EnabledNonInputsAll(nil)
		for s := range g.States {
			if want := g.EnabledNonInputs(s); enabled[s] != want {
				t.Fatalf("graph %d state %d: enabled mask %b, want %b", gi, s, enabled[s], want)
			}
		}
	}
}

// TestAnalyzeMatchesLegacyScan pins the full conflict scan (which now
// runs over the shared enabled-mask column and radix groups) against a
// direct reconstruction from the legacy grouping.
func TestAnalyzeMatchesLegacyScan(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		if got, want := Analyze(g), legacyAnalyze(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: conflicts diverge\n new %+v\n old %+v", gi, got, want)
		}
	}
}

// legacyAnalyze is the pre-bitset sequential conflict scan.
func legacyAnalyze(g *Graph) *Conflicts {
	keys, groups := legacyCodeGroups(g)
	res := &Conflicts{}
	for _, k := range keys {
		states := groups[k]
		if len(states) > res.MaxGroup {
			res.MaxGroup = len(states)
		}
		classOf := make([]uint64, len(states))
		classes := make(map[uint64]bool)
		for i, s := range states {
			classOf[i] = g.EnabledNonInputs(s)
			classes[classOf[i]] = true
		}
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				p := Pair{states[i], states[j]}
				if classOf[i] != classOf[j] {
					res.CSC = append(res.CSC, p)
				} else {
					res.USC = append(res.USC, p)
				}
			}
		}
		if lb := ceilLog2(len(classes)); lb > res.LowerBound {
			res.LowerBound = lb
		}
	}
	return res
}
