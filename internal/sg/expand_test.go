package sg

import (
	"math/rand"
	"strings"
	"testing"

	"asyncsyn/internal/stg"
)

// insertTwoPulseSignal loads the twoPulse STG and inserts the canonical
// state signal: rising concurrently with the first b pulse, falling
// with the second.
func insertTwoPulseSignal(t *testing.T) *Graph {
	t.Helper()
	sgr, err := FromSTG(parse(t, twoPulse), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// States (BFS): 0 idle, 1 a=1, 2 ab=11, 3 a=1 post b-, 4 idle2,
	// 5 b=1 second pulse.
	phases := []Phase{P0, P0, PUp, P1, P1, PDown}
	sgr.StateSigs = append(sgr.StateSigs, StateSignal{Name: "z", Phases: phases})
	if bad := sgr.CheckPhaseConsistency(); len(bad) != 0 {
		t.Fatalf("phases inconsistent: %v", bad)
	}
	return sgr
}

func TestExpandSerializesExcitation(t *testing.T) {
	sgr := insertTwoPulseSignal(t)
	ex, err := sgr.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// z+ fires inside state 2's region, z− inside state 5's: 6 original
	// states, two of them split = 8 expanded states.
	if ex.NumStates() != 8 {
		t.Fatalf("expanded states = %d, want 8", ex.NumStates())
	}
	if len(ex.StateSigs) != 0 {
		t.Fatalf("expansion must clear phase columns")
	}
	zIdx, ok := ex.SignalIndex("z")
	if !ok {
		t.Fatalf("z not a base signal after expansion")
	}
	if ex.Base[zIdx].Input {
		t.Fatalf("state signal must be non-input")
	}
	// Exactly one z+ and one z− edge.
	var rises, falls int
	for _, e := range ex.Edges {
		if e.Sig == zIdx {
			if e.Dir == stg.Rising {
				rises++
			} else {
				falls++
			}
		}
	}
	if rises != 1 || falls != 1 {
		t.Fatalf("z edges: %d rises, %d falls", rises, falls)
	}
	// Expansion resolves the CSC conflicts of this insertion.
	if conf := Analyze(ex); conf.N() != 0 {
		t.Fatalf("expanded graph still has %d conflicts", conf.N())
	}
	// All expanded codes are distinct here.
	seen := make(map[uint64]bool)
	for s := range ex.States {
		c := ex.States[s].Code
		if seen[c] {
			t.Fatalf("duplicate expanded code %b", c)
		}
		seen[c] = true
	}
}

func TestExpandNoStateSigsIsClone(t *testing.T) {
	sgr, _ := FromSTG(parse(t, handshake), Options{})
	ex, err := sgr.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumStates() != sgr.NumStates() || len(ex.Edges) != len(sgr.Edges) {
		t.Fatalf("expansion without state signals must preserve the graph")
	}
}

func TestExpandGatesOriginalEdges(t *testing.T) {
	// Phase 0→1 along an edge is illegal; Up→1 requires z+ before the
	// move. Construct a 4-cycle with z: 0:P0, 1:PUp, 2:P1, 3:PDown.
	sgr, _ := FromSTG(parse(t, handshake), Options{})
	sgr.StateSigs = append(sgr.StateSigs, StateSignal{Name: "z", Phases: []Phase{P0, PUp, P1, PDown}})
	ex, err := sgr.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// In the expanded graph, no edge may jump z's level except z's own.
	zIdx, _ := ex.SignalIndex("z")
	for _, e := range ex.Edges {
		zFrom := (ex.States[e.From].Code >> zIdx) & 1
		zTo := (ex.States[e.To].Code >> zIdx) & 1
		if e.Sig != zIdx && zFrom != zTo {
			t.Fatalf("edge of %s changes z's level", ex.Base[e.Sig].Name)
		}
	}
	// The state with phase 1 must only be reachable after z+ fired.
	if conf := Analyze(ex); conf.N() != 0 {
		t.Fatalf("conflicts after expansion: %d", conf.N())
	}
}

func TestFunctionTable(t *testing.T) {
	sgr := insertTwoPulseSignal(t)
	ex, err := sgr.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bIdx, _ := ex.SignalIndex("b")
	full := uint64(1<<len(ex.Base)) - 1
	tbl, err := ex.FunctionTable(bIdx, full)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Signal != "b" || len(tbl.Vars) != 3 {
		t.Fatalf("table meta %v %v", tbl.Signal, tbl.Vars)
	}
	if len(tbl.On)+len(tbl.Off) != ex.NumStates() {
		t.Fatalf("table covers %d codes, want %d", len(tbl.On)+len(tbl.Off), ex.NumStates())
	}
	// ON and OFF are disjoint and sorted.
	seen := make(map[uint64]bool)
	for _, m := range append(append([]uint64{}, tbl.On...), tbl.Off...) {
		if seen[m] {
			t.Fatalf("minterm %b in both sets", m)
		}
		seen[m] = true
	}
}

func TestFunctionTableIllDefined(t *testing.T) {
	sgr, _ := FromSTG(parse(t, twoPulse), Options{})
	bIdx, _ := sgr.SignalIndex("b")
	// Without any state signal, b is ill-defined on the full support
	// (codes 10 and 00 each imply both values).
	full := uint64(1<<len(sgr.Base)) - 1
	if _, err := sgr.FunctionTable(bIdx, full); err == nil || !strings.Contains(err.Error(), "ill-defined") {
		t.Fatalf("want ill-defined error, got %v", err)
	}
}

func TestFunctionTableRequiresExpandedGraph(t *testing.T) {
	sgr := insertTwoPulseSignal(t)
	if _, err := sgr.FunctionTable(0, 1); err == nil {
		t.Fatalf("FunctionTable must reject graphs with phase columns")
	}
}

func TestFunctionTableSupportProjection(t *testing.T) {
	sgr := insertTwoPulseSignal(t)
	ex, _ := sgr.Expand()
	bIdx, _ := ex.SignalIndex("b")
	aIdx, _ := ex.SignalIndex("a")
	zIdx, _ := ex.SignalIndex("z")
	// b restricted to {a, z, b}: all bits — fine. Restricted to {b} only:
	// must be ill-defined (b cannot be a function of itself alone).
	if _, err := ex.FunctionTable(bIdx, 1<<bIdx); err == nil {
		t.Fatalf("b over {b} must be ill-defined")
	}
	tbl, err := ex.FunctionTable(bIdx, 1<<aIdx|1<<bIdx|1<<zIdx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Vars) != 3 {
		t.Fatalf("vars %v", tbl.Vars)
	}
}

// TestCompressorMatchesBitLoop pins the software PEXT behind table
// projection to a bit-by-bit packing on random masks and codes, plus
// the empty, full, single-bit and top-bit masks.
func TestCompressorMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	masks := []uint64{0, ^uint64(0), 1, 1 << 63, 0x8000000000000001, 0x5555555555555555}
	for i := 0; i < 200; i++ {
		masks = append(masks, rng.Uint64()&rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, m := range masks {
		cp := newCompressor(m)
		for i := 0; i < 50; i++ {
			x := rng.Uint64()
			var want uint64
			bi := 0
			for v := 0; v < 64; v++ {
				if m&(1<<v) != 0 {
					if x&(1<<v) != 0 {
						want |= 1 << bi
					}
					bi++
				}
			}
			if got := cp.compress(x); got != want {
				t.Fatalf("compress(%#x) under %#x = %#x, want %#x", x, m, got, want)
			}
		}
	}
}
