package csc

import (
	"fmt"
	"testing"

	"asyncsyn/internal/sat"
)

// TestWarmChainLayout pins the warm chain's two translations in a chain
// solver layout whose columns are not contiguous (group auxiliaries sit
// between them, as after a step that grew m): a stable export
// normalizes to variable 2s+bit of its one column, signs kept, dropping
// clauses that span columns or touch any other variable and
// duplicates; seeding places every chain clause at every active column
// in absorption order. The chain is bound to its graph by identity: it
// keeps its clauses for the same graph and drops them for any other,
// even a structurally equal copy.
func TestWarmChainLayout(t *testing.T) {
	lay := layout{n: 3, lo: []int{0, 10, 17}} // variables 6–9 and 23+ are auxiliaries
	lit := func(v int, neg bool) sat.Lit {
		if neg {
			return sat.NegLit(v)
		}
		return sat.PosLit(v)
	}
	exported := [][]sat.Lit{
		{lit(13, true), lit(10, false)},  // column 1: states 0 (a) and 1 (b)
		{lit(21, false), lit(17, false)}, // column 2: states 0 (a) and 2 (a)
		{lit(0, false), lit(10, false)},  // spans columns 0 and 1
		{lit(2, false), lit(7, true)},    // touches an auxiliary
		{lit(3, true), lit(0, false)},    // column 0: the first clause again
		{lit(18, false), lit(24, false)}, // touches an auxiliary past the last column
	}
	c := NewWarmChain()
	g, copyOfG := edgeKindsGraph(), edgeKindsGraph()
	c.bind(g)
	norm := c.normalize(lay, 3, exported)
	if got, want := fmt.Sprint(norm), fmt.Sprint([][]sat.Lit{{lit(0, false), lit(3, true)}, {lit(0, false), lit(4, false)}}); got != want {
		t.Fatalf("normalized %s, want %s", got, want)
	}
	// Only the first two columns are active: a clause of column 2 is no
	// clause of this step.
	if got := c.normalize(lay, 2, exported[1:2]); got != nil {
		t.Fatalf("clause of an inactive column normalized to %v", got)
	}
	c.AbsorbNormalized(norm)

	w := c.seed(lay, 3, &seedBuf{})
	var want [][]sat.Lit
	for _, cl := range norm {
		for _, lo := range lay.lo {
			want = append(want, []sat.Lit{cl[0] + sat.Lit(2*lo), cl[1] + sat.Lit(2*lo)})
		}
	}
	if got := fmt.Sprint(w.Clauses); got != fmt.Sprint(want) {
		t.Fatalf("seeds %s, want %s", got, fmt.Sprint(want))
	}

	hash := c.Hash()
	c.bind(g)
	if c.Hash() != hash {
		t.Fatal("binding the chain to its own graph dropped clauses")
	}
	c.bind(copyOfG)
	if c.Hash() != NewWarmChain().Hash() || c.seed(lay, 3, &seedBuf{}) != nil {
		t.Fatal("a chain bound to another graph kept its clauses")
	}
}
