package core

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/logic"
	"asyncsyn/internal/sg"
)

// The tool's gate model is the atomic complex gate: the implied-value
// oracle, the closed-loop simulator and Area all read a function's whole
// cover as one gate, and Circuit.Verilog emits exactly that. This file
// prices the other reading, one AND gate per cube and one OR gate per
// function, which the tool does not emit. Every edge of the final state
// graph changes one signal, so the single-input-change conditions apply:
// a dynamic or static-0 transition cannot glitch in a sum of products,
// and a static-1 transition (the function is 1 on both sides) glitches
// unless one cube covers both endpoint codes. Repairing such a hazard
// adds the supercube of the two codes, expanded to a prime against the
// OFF-set (Lavagno et al., DAC 1991). Freedom from these hazards is
// necessary, not sufficient, for a speed-independent AND-OR network
// (Beerel & Meng, ICCAD 1992; Kondratyev et al., DAC 1994).

// transition is one single-variable change between two codes over a
// function's support.
type transition struct{ from, to uint64 }

// static1Hazard reports whether f is 1 on both codes of tr and no single
// cube of f covers both.
func static1Hazard(f logic.Cover, tr transition) bool {
	if !f.CoversMinterm(tr.from) || !f.CoversMinterm(tr.to) {
		return false
	}
	for _, c := range f {
		if c.CoversMinterm(tr.from) && c.CoversMinterm(tr.to) {
			return false
		}
	}
	return true
}

// adjacentOnTransitions projects edges onto a function's support: codes
// holds each state's code over that support. An edge flips one signal,
// so its projection either stays on one code (the signal is outside the
// support) or flips one support variable. Same-code projections and
// repeats are dropped; the rest keep the order of their first edge.
func adjacentOnTransitions(codes []uint64, edges []sg.Edge) []transition {
	var trans []transition
	seen := make(map[transition]bool)
	for _, e := range edges {
		tr := transition{codes[e.From], codes[e.To]}
		if tr.from == tr.to || seen[tr] {
			continue
		}
		seen[tr] = true
		trans = append(trans, tr)
	}
	return trans
}

// linkPrime returns the cube that repairs a static-1 hazard on tr: the
// supercube of its two codes with literals raised, lowest variable first,
// while it stays clear of the OFF cover. ok is false when the supercube
// itself meets the OFF-set.
func linkPrime(n int, tr transition, off logic.Cover) (c logic.Cube, ok bool) {
	c = logic.FromMinterm(n, tr.from).Supercube(logic.FromMinterm(n, tr.to))
	if off.IntersectsAny(c) {
		return c, false
	}
	for v := 0; v < n; v++ {
		val := c.Var(v)
		if val == logic.VDash {
			continue
		}
		c.SetVar(v, logic.VDash)
		if off.IntersectsAny(c) {
			c.SetVar(v, val)
		}
	}
	return c, true
}

// TestNaiveAndOrHazards pins the static-1 hazards of the AND-OR reading
// of every Table-1 modular circuit and the literals their repair adds.
// Two repair costs are pinned: perTrans adds one prime per hazardous
// transition, as a per-transition repair writes them (duplicates
// included), and distinct adds each different prime once. Every repaired
// cover must be hazard-free on every transition of the final graph.
func TestNaiveAndOrHazards(t *testing.T) {
	type pin struct{ functions, transitions, perTrans, distinct int }
	pins := map[string]pin{
		"mr0": {6, 102, 211, 33}, "sbuf-ram-write": {1, 1, 4, 4}, "vbe4a": {2, 12, 28, 10},
		"nak-pa": {2, 8, 24, 6}, "pe-rcv-ifc-fc": {1, 1, 3, 3}, "alex-nonfc": {1, 2, 4, 2},
		"sbuf-send-ctl": {2, 3, 6, 6}, "atod": {1, 2, 4, 4}, "pa": {2, 2, 6, 6},
		"alloc-outbound": {1, 1, 2, 2}, "sbuf-read-ctl": {3, 3, 7, 7},
		"nouse": {1, 1, 2, 2},
	}
	var total pin
	area, rows := 0, 0
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The pipeline streams the expansion without keeping its edges;
		// rebuild them from the final phase-annotated graph.
		ex, err := res.Full.Expand()
		if err != nil {
			t.Fatalf("%s: expand: %v", name, err)
		}
		area += res.Area
		var got pin
		for _, fn := range res.Functions {
			sig, ok := ex.SignalIndex(fn.Name)
			if !ok {
				t.Fatalf("%s: function %q names no signal", name, fn.Name)
			}
			vars := make([]int, len(fn.Vars))
			for i, v := range fn.Vars {
				if vars[i], ok = ex.SignalIndex(v); !ok {
					t.Fatalf("%s: support var %q missing", name, v)
				}
			}
			// Project every state onto the support; implied-0 codes form
			// the OFF-set.
			n := len(fn.Vars)
			codes := make([]uint64, ex.NumStates())
			var off logic.Cover
			inOff := make(map[uint64]bool)
			for s := range ex.States {
				for i, vi := range vars {
					if ex.States[s].Code&(1<<vi) != 0 {
						codes[s] |= 1 << i
					}
				}
				if ex.ImpliedValue(s, sig) == 0 && !inOff[codes[s]] {
					inOff[codes[s]] = true
					off = append(off, logic.FromMinterm(n, codes[s]))
				}
			}
			trans := adjacentOnTransitions(codes, ex.Edges)
			var hazards []transition
			for _, tr := range trans {
				if static1Hazard(fn.Cover, tr) {
					hazards = append(hazards, tr)
				}
			}
			if len(hazards) == 0 {
				continue
			}
			got.functions++
			got.transitions += len(hazards)
			fixed := fn.Cover.Clone()
			for _, tr := range hazards {
				link, ok := linkPrime(n, tr, off)
				if !ok {
					t.Fatalf("%s/%s: transition %b→%b spans the OFF-set", name, fn.Name, tr.from, tr.to)
				}
				got.perTrans += link.Literals()
				dup := false
				for _, c := range fixed[len(fn.Cover):] {
					dup = dup || c.Equal(link)
				}
				if !dup {
					fixed = append(fixed, link)
					got.distinct += link.Literals()
				}
			}
			for _, tr := range trans {
				if static1Hazard(fixed, tr) {
					t.Errorf("%s/%s: static-1 hazard on %b→%b survives the repair", name, fn.Name, tr.from, tr.to)
				}
			}
		}
		if got != pins[name] {
			t.Errorf("%s: got %+v, pinned %+v", name, got, pins[name])
		}
		if got.functions > 0 {
			rows++
		}
		total.functions += got.functions
		total.transitions += got.transitions
		total.perTrans += got.perTrans
		total.distinct += got.distinct
	}
	if want := (pin{23, 138, 301, 85}); rows != 12 || total != want || area != 913 {
		t.Errorf("%d rows, totals %+v on area %d; want 12 rows, %+v on 913", rows, total, area, want)
	}
}

// hazardCover builds the cover {a'b', ab, ab'} over (a=var0, b=var1):
// ON codes 0b00, 0b01, 0b11, OFF code 0b10 (a'b). Every ON-ON
// single-variable transition crosses from one cube to another, so the
// cover is full of static-1 hazards.
func hazardCover() (logic.Cover, logic.Cover) {
	c1 := logic.NewCube(2) // a'b'
	c1.SetVar(0, logic.VFalse)
	c1.SetVar(1, logic.VFalse)
	c2 := logic.NewCube(2) // a b
	c2.SetVar(0, logic.VTrue)
	c2.SetVar(1, logic.VTrue)
	c3 := logic.NewCube(2) // a b'
	c3.SetVar(0, logic.VTrue)
	c3.SetVar(1, logic.VFalse)
	return logic.Cover{c1, c2, c3}, logic.Cover{logic.FromMinterm(2, 0b10)}
}

func TestCheckFindsStatic1Hazard(t *testing.T) {
	cover, _ := hazardCover()
	// Both codes ON, covered by different cubes.
	if !static1Hazard(cover, transition{0b00, 0b01}) {
		t.Errorf("00→01 crosses from a'b' to ab' but is not flagged")
	}
	// 0b10 is OFF: not a static-1 case.
	if static1Hazard(cover, transition{0b00, 0b10}) {
		t.Errorf("00→10 ends on the OFF-set but is flagged")
	}
}

func TestCheckCleanCover(t *testing.T) {
	// f = a (single cube): no static-1 hazard possible.
	c := logic.NewCube(2)
	c.SetVar(0, logic.VTrue)
	for _, tr := range []transition{{0b01, 0b11}, {0b11, 0b01}} {
		if static1Hazard(logic.Cover{c}, tr) {
			t.Errorf("single-cube cover flagged on %b→%b", tr.from, tr.to)
		}
	}
}

func TestRepairAddsLinkCube(t *testing.T) {
	cover, off := hazardCover()
	tr := transition{0b00, 0b01}
	link, ok := linkPrime(2, tr, off)
	if !ok {
		t.Fatalf("00→01 has no link cube")
	}
	// The supercube of 00 and 01 is b'; raising b would meet the OFF
	// code a'b, so b' is the prime.
	want := logic.NewCube(2)
	want.SetVar(1, logic.VFalse)
	if !link.Equal(want) {
		t.Fatalf("link = %v, want b'", link)
	}
	if off.IntersectsAny(link) {
		t.Fatalf("link cube intersects the OFF-set")
	}
	if fixed := append(cover.Clone(), link); static1Hazard(fixed, tr) {
		t.Fatalf("hazard survives repair")
	}
}

func TestRepairImpossible(t *testing.T) {
	// A transition whose supercube spans the OFF-set cannot be linked by
	// a single cube: 00→11 has the universal cube as its supercube, which
	// hits the OFF code 0b10.
	_, off := hazardCover()
	if _, ok := linkPrime(2, transition{0b00, 0b11}, off); ok {
		t.Fatalf("repair across the OFF-set must fail")
	}
}

func TestAdjacentOnTransitions(t *testing.T) {
	codes := []uint64{0b00, 0b01, 0b11, 0b01}
	edges := []sg.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}, {From: 0, To: 1}, {From: 2, To: 1}}
	got := adjacentOnTransitions(codes, edges)
	// (1,3) has identical codes → skipped; the second (0,1) is a repeat.
	want := []transition{{0b00, 0b01}, {0b01, 0b11}, {0b11, 0b01}}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}
