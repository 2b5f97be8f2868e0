package logic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the bitset EXPAND and the copy-by-copy IRREDUNDANT
// that the EXPAND walk and the deduplicated irredundant replaced,
// and the Cube-based ESPRESSO loop with its REDUCE that the passes on
// literal sets replaced, verbatim apart from their names and the legacy
// passes they call, as the reference implementations the production
// paths must match bit for bit.

// literals returns the literals of c as an assignment.
func literals(c Cube) assignment {
	var a assignment
	for v := 0; v < c.N(); v++ {
		switch c.Var(v) {
		case VTrue:
			a.vars |= 1 << v
			a.vals |= 1 << v
		case VFalse:
			a.vars |= 1 << v
		}
	}
	return a
}

// assignments returns the literal sets of the cubes of cover.
func assignments(cover Cover) []assignment {
	out := make([]assignment, len(cover))
	for i, c := range cover {
		out[i] = literals(c)
	}
	return out
}

// legacyMinimize is the Cube-based loop of MinimizeContext, without
// its context poll and counters: one minterm cube per ON minterm,
// expanded, made irredundant, then REDUCE + re-EXPAND + IRREDUNDANT
// passes until the literal count stops improving.
func legacyMinimize(spec Spec, opt Options) (Cover, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxPasses == 0 {
		opt.MaxPasses = 8
	}
	if len(spec.On) == 0 {
		return Cover{}, nil
	}
	off := newMintermMatrix(spec.NumVars, spec.Off)
	on := newMintermMatrix(spec.NumVars, spec.On)
	sc := &legacyExpandScratch{}
	cover := make(Cover, 0, len(spec.On))
	for _, m := range spec.On {
		cover = append(cover, legacyExpand(FromMinterm(spec.NumVars, m), off, 0, sc))
	}
	cover = legacyIrredundant(cover, on)

	best := cover
	bestLits := cover.Literals()
	for pass := 1; pass < opt.MaxPasses; pass++ {
		reduced := legacyReduce(cover, on)
		next := make(Cover, len(reduced))
		for i, c := range reduced {
			next[i] = legacyExpand(c, off, pass, sc)
		}
		next = legacyIrredundant(next, on)
		lits := next.Literals()
		if lits >= bestLits {
			break
		}
		best, bestLits = next, lits
		cover = next
	}
	return best, nil
}

// legacyReduce sequentially shrinks each cube to the supercube of the ON
// minterms that the rest of the (partially reduced) cover does not
// already cover, giving the following EXPAND a different starting point.
// Unlike a simultaneous shrink, the sequential form preserves coverage
// of every ON minterm; cubes left with no private minterms are dropped.
// It only ever runs on post-IRREDUNDANT covers, so materializing the
// per-cube cover masks is cheap.
func legacyReduce(cover Cover, on *mintermMatrix) Cover {
	W := on.words
	counts := make([]int32, on.n)
	masks := make([][]uint64, len(cover))
	flat := make([]uint64, len(cover)*W)
	for ci, c := range cover {
		m := flat[ci*W : (ci+1)*W]
		on.coverMask(literals(c), m)
		masks[ci] = m
		for w, mw := range m {
			for ; mw != 0; mw &= mw - 1 {
				counts[w*64+bits.TrailingZeros64(mw)]++
			}
		}
	}
	out := make(Cover, 0, len(cover))
	for ci, c := range cover {
		var sup Cube
		first := true
		for w, mw := range masks[ci] {
			for ; mw != 0; mw &= mw - 1 {
				mi := w*64 + bits.TrailingZeros64(mw)
				if counts[mi] == 1 { // only this cube (in its current form) covers it
					mc := FromMinterm(c.N(), on.ms[mi])
					if first {
						sup, first = mc, false
					} else {
						sup = sup.Supercube(mc)
					}
				}
			}
		}
		if first {
			// Fully redundant at this point: drop it (its minterms stay
			// covered by the other cubes' counts).
			for w, mw := range masks[ci] {
				for ; mw != 0; mw &= mw - 1 {
					counts[w*64+bits.TrailingZeros64(mw)]--
				}
			}
			continue
		}
		// Release the minterms the shrunk cube no longer covers.
		for w, mw := range masks[ci] {
			for ; mw != 0; mw &= mw - 1 {
				mi := w*64 + bits.TrailingZeros64(mw)
				if !sup.CoversMinterm(on.ms[mi]) {
					counts[mi]--
				}
			}
		}
		out = append(out, sup)
	}
	return out
}

// legacyExpandScratch holds the EXPAND working set so one allocation batch is
// reused across every cube of every pass of a minimization: the conflict
// columns (one OFF bitset per lowered literal, flat at word stride),
// the covered-rows bitset, and the dense keep table.
type legacyExpandScratch struct {
	lowered []int
	srcs    [][]uint64 // per lowered literal, its variable's OFF column
	flips   []uint64   // per lowered literal, ^0 when the literal is positive
	covered []uint64
	cnts    []int
	keep    []bool
}

// legacyExpand grows cube c into a prime not intersecting any OFF minterm. The
// variables kept lowered are chosen by greedy column covering of the
// blocking matrix (each OFF minterm must remain excluded by at least one
// kept literal); `rot` rotates tie-breaking so successive passes explore
// different primes. The blocking matrix is held column-wise: conflict
// column li is the bitset of OFF minterms literal lowered[li] excludes,
// so covering counts and primality checks are popcounts and word masks
// rather than per-row scans.
func legacyExpand(c Cube, off *mintermMatrix, rot int, sc *legacyExpandScratch) Cube {
	n := c.N()
	sc.lowered = sc.lowered[:0]
	for v := 0; v < n; v++ {
		if val := c.Var(v); val == VTrue || val == VFalse {
			sc.lowered = append(sc.lowered, v)
		}
	}
	lowered := sc.lowered
	L, W := len(lowered), off.words
	// The conflict column of literal li — the OFF minterms it excludes —
	// is never materialized: word w is (srcs[li][w]^flips[li]) masked to
	// the valid rows, computed on the fly wherever it is consumed. (A
	// positive literal excludes the rows where its variable is 0, hence
	// the full-word flip; the negative literal excludes the column
	// as stored.)
	if cap(sc.srcs) < L {
		sc.srcs = make([][]uint64, L)
		sc.flips = make([]uint64, L)
	}
	srcs, flips := sc.srcs[:L], sc.flips[:L]
	for li, v := range lowered {
		srcs[li] = off.cols[v]
		if c.Var(v) == VTrue {
			flips[li] = ^uint64(0)
		} else {
			flips[li] = 0
		}
	}
	if cap(sc.covered) < W {
		sc.covered = make([]uint64, W)
	}
	covered := sc.covered[:W]
	// A row no literal excludes intersects c — caller bug, keep the cube.
	for w := 0; w < W; w++ {
		acc := uint64(0)
		for li := 0; li < L; li++ {
			acc |= srcs[li][w] ^ flips[li]
		}
		if off.full[w]&^acc != 0 {
			return c
		}
		covered[w] = 0
	}

	if cap(sc.keep) < n {
		sc.keep = make([]bool, n)
	}
	keep := sc.keep[:n]
	for i := 0; i < n; i++ {
		keep[i] = false
	}
	if cap(sc.cnts) < L {
		sc.cnts = make([]int, L)
	}
	cnts := sc.cnts[:L]

	remaining := off.n
	for remaining > 0 {
		// Count uncovered rows per literal, skipping fully covered words —
		// the totals (and so the greedy choice under the rotated
		// tie-break) match a per-literal scan exactly.
		for li := range cnts {
			cnts[li] = 0
		}
		for w := 0; w < W; w++ {
			cw := off.full[w] &^ covered[w]
			if cw == 0 {
				continue
			}
			for li := 0; li < L; li++ {
				cnts[li] += bits.OnesCount64((srcs[li][w] ^ flips[li]) & cw)
			}
		}
		bestLi, bestC := -1, -1
		for i := 0; i < L; i++ {
			li := (i + rot) % L
			if cnt := cnts[li]; cnt > bestC {
				bestLi, bestC = li, cnt
			}
		}
		keep[lowered[bestLi]] = true
		src, flip := srcs[bestLi], flips[bestLi]
		remaining = 0
		for w := 0; w < W; w++ {
			covered[w] |= (src[w] ^ flip) & off.full[w]
			remaining += bits.OnesCount64(off.full[w] &^ covered[w])
		}
	}
	// Primality pass: try raising each kept literal individually. The
	// lowered cube excludes OFF minterm i through the kept literals whose
	// conflict columns contain i, so raising v preserves exclusion exactly
	// when v's column is within the union of the other kept columns — the
	// same verdict the cube-intersection test gave, without rescanning the
	// OFF set.
	for li, v := range lowered {
		if !keep[v] {
			continue
		}
		raisable := true
		for w := 0; w < W && raisable; w++ {
			other := uint64(0)
			for lj, u := range lowered {
				if u != v && keep[u] {
					other |= srcs[lj][w] ^ flips[lj]
				}
			}
			if (srcs[li][w]^flips[li])&off.full[w]&^other != 0 {
				raisable = false
			}
		}
		if raisable {
			keep[v] = false
		}
	}
	out := c.Clone()
	for _, v := range lowered {
		if !keep[v] {
			out.SetVar(v, VDash)
		}
	}
	return out
}

// legacyIrredundant removes cubes until every remaining cube is needed to cover
// some ON minterm: essential cubes (sole cover of a minterm) are kept,
// then the rest are dropped greedily, largest-literal-count first.
//
// The cube→minterm incidence is deliberately NOT materialized: on dense
// instances it is quadratic in |cover|·|on| and dominated the whole
// pipeline's peak heap (a gigabyte on the k=5 scaling point). Each
// candidate instead recomputes its covered-minterm bitset from the
// column view into one shared buffer and tests it against the bitset of
// minterms with at most one cover left. Decisions, and therefore the
// returned cover, are bit-identical to the materialized form.
func legacyIrredundant(cover Cover, on *mintermMatrix) Cover {
	W := on.words
	coverCnt := make([]int, len(cover)) // cube → #covered ON minterms
	lits := make([]int, len(cover))
	vc := &vertCounter{W: W} // minterm → #covering cubes, bit-planed
	mask := make([]uint64, W)
	for ci, c := range cover {
		on.coverMask(literals(c), mask)
		cnt := 0
		for _, mw := range mask {
			cnt += bits.OnesCount64(mw)
		}
		coverCnt[ci] = cnt
		lits[ci] = c.Literals()
		vc.add(mask)
	}
	alive := make([]bool, len(cover))
	for i := range alive {
		alive[i] = true
	}
	// Drop order: most literals first (prefer keeping big cubes out?
	// no — keeping FEWER literals total means dropping costly cubes first),
	// ties by fewer covered minterms, then by index for determinism.
	order := make([]int, len(cover))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := lits[order[a]], lits[order[b]]
		if la != lb {
			return la > lb
		}
		ca, cb := coverCnt[order[a]], coverCnt[order[b]]
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	// atMost marks minterms with a single remaining cover: a cube is
	// removable exactly when its mask avoids all of them.
	atMost := make([]uint64, W)
	for w := 0; w < W; w++ {
		atMost[w] = on.full[w] &^ vc.atLeast2(w)
	}
	for _, ci := range order {
		on.coverMask(literals(cover[ci]), mask)
		removable := true
		for w := range mask {
			if mask[w]&atMost[w] != 0 {
				removable = false
				break
			}
		}
		if removable {
			alive[ci] = false
			vc.sub(mask)
			for w, mw := range mask {
				if mw != 0 {
					atMost[w] = on.full[w] &^ vc.atLeast2(w)
				}
			}
		}
	}
	out := make(Cover, 0, len(cover))
	for ci, a := range alive {
		if a {
			out = append(out, cover[ci])
		}
	}
	return out
}

// randomSpec draws an incompletely specified function over n variables:
// each minterm is ON, OFF or don't-care with probabilities on, off and
// the rest.
func randomSpec(rng *rand.Rand, n int, on, off float64) Spec {
	spec := Spec{NumVars: n}
	for m := uint64(0); m < 1<<n; m++ {
		switch r := rng.Float64(); {
		case r < on:
			spec.On = append(spec.On, m)
		case r < on+off:
			spec.Off = append(spec.Off, m)
		}
	}
	return spec
}

// TestExpandMatchesLegacy pins the EXPAND walk to the bitset EXPAND it
// replaced on random specs of 1 to 10 variables: minterm cubes (ON, OFF
// and don't-care minterms) and random cubes, including cubes that meet
// the OFF-set, expanded together as one pass that mixes literal sets,
// under every rotation 0..7. One memo serves each spec, as it serves a
// whole minimization.
func TestExpandMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var meetsOff, universal, compared int
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%10
		spec := randomSpec(rng, n, 0.1+0.5*rng.Float64(), 0.1+0.4*rng.Float64())
		off := newMintermMatrix(n, spec.Off)
		offCover := make(Cover, len(spec.Off))
		for i, m := range spec.Off {
			offCover[i] = FromMinterm(n, m)
		}
		var cubes []Cube
		for i := 0; i < 24; i++ {
			cubes = append(cubes, FromMinterm(n, uint64(rng.Intn(1<<n))))
			cubes = append(cubes, randomCube(rng, n))
		}
		cubes = append(cubes, NewCube(n))
		for _, c := range cubes {
			if offCover.IntersectsAny(c) {
				meetsOff++
				if c.Literals() == 0 {
					universal++
				}
			}
		}
		x := newExpander(off, len(cubes))
		for rot := 0; rot < 8; rot++ {
			if err := matchLegacyExpand(x, cubes, off, rot); err != nil {
				t.Fatalf("n=%d: %v\nON %v\nOFF %v", n, err, spec.On, spec.Off)
			}
			compared += len(cubes)
		}
	}
	if meetsOff == 0 || universal == 0 {
		t.Fatalf("no cube met the OFF-set (%d, %d universal): the early return went untested", meetsOff, universal)
	}
	t.Logf("%d expansions compared, %d cubes met the OFF-set", compared, meetsOff)
}

// matchLegacyExpand expands cubes as one pass of x under rotation rot
// and compares every prime with legacyExpand's for the same cube.
func matchLegacyExpand(x *expander, cubes []Cube, off *mintermMatrix, rot int) error {
	pass := assignments(cubes)
	x.expand(pass, rot)
	sc := &legacyExpandScratch{}
	for i, c := range cubes {
		want := legacyExpand(c, off, rot, sc)
		if got := pass[i].cube(c.N()); !got.Equal(want) {
			return fmt.Errorf("rot=%d cube %d: expand(%v) = %v, legacy %v", rot, i, c, got, want)
		}
	}
	return nil
}

// sparseSpec draws on ON and off OFF minterms over n variables, all
// distinct.
func sparseSpec(rng *rand.Rand, n, on, off int) Spec {
	spec := Spec{NumVars: n}
	seen := make(map[uint64]bool)
	draw := func() uint64 {
		for {
			if m := uint64(rng.Int63n(1 << n)); !seen[m] {
				seen[m] = true
				return m
			}
		}
	}
	for len(spec.On) < on {
		spec.On = append(spec.On, draw())
	}
	for len(spec.Off) < off {
		spec.Off = append(spec.Off, draw())
	}
	return spec
}

// TestExpandWalkMatchesLegacy pins the EXPAND walk to the bitset EXPAND
// on the passes a minimization runs, over 1 to 20 variables: dense,
// sparse and symmetric specs and specs with no OFF minterm. Each spec's
// ON minterm cubes are expanded as one pass (the first pass's shape)
// under every rotation, and so is the legacy loop's reduced cover after
// its first and second pass, whose cubes have partial literal sets and
// mix them, with duplicates of its cubes added.
func TestExpandWalkMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var passes, mixed, noOff int
	for trial := 0; trial < 160; trial++ {
		n := 1 + trial%20
		var spec Spec
		switch {
		case trial%8 == 7:
			spec = sparseSpec(rng, n, 1+rng.Intn(min(1<<n, 60)), 0)
		case n <= 9 && trial%3 == 0:
			spec = symmetricSpec(rng, n)
		case n <= 9:
			spec = randomSpec(rng, n, 0.1+0.5*rng.Float64(), 0.1+0.4*rng.Float64())
		default:
			spec = sparseSpec(rng, n, 20+rng.Intn(100), 20+rng.Intn(100))
		}
		if len(spec.On) == 0 {
			continue
		}
		if len(spec.Off) == 0 {
			noOff++
		}
		off := newMintermMatrix(n, spec.Off)
		on := newMintermMatrix(n, spec.On)
		x := newExpander(off, len(spec.On))
		cubes := make(Cover, len(spec.On))
		for i, m := range spec.On {
			cubes[i] = FromMinterm(n, m)
		}
		sc := &legacyExpandScratch{}
		for round := 0; round < 3 && len(cubes) > 0; round++ {
			rots := n
			if round == 0 && n > 8 {
				rots = 3
			}
			for rot := 0; rot < rots; rot++ {
				if err := matchLegacyExpand(x, cubes, off, rot); err != nil {
					t.Fatalf("trial %d n=%d round %d: %v\nON %v\nOFF %v", trial, n, round, err, spec.On, spec.Off)
				}
				passes++
			}
			// The next round's pass is the legacy loop's reduced cover,
			// with a few of its cubes repeated.
			next := make(Cover, len(cubes))
			for i, c := range cubes {
				next[i] = legacyExpand(c, off, round, sc)
			}
			cubes = legacyReduce(legacyIrredundant(next, on), on)
			for i := len(cubes) - 1; i >= 0; i -= 3 {
				cubes = append(cubes, cubes[i].Clone())
			}
			for _, c := range cubes {
				if literals(c).vars != literals(cubes[0]).vars {
					mixed++
					break
				}
			}
		}
	}
	if mixed == 0 || noOff == 0 {
		t.Fatalf("%d passes mixed literal sets, %d specs had no OFF minterm: want both", mixed, noOff)
	}
	t.Logf("%d passes compared, %d mixed literal sets, %d specs with no OFF minterm", passes, mixed, noOff)
}

// TestIrredundantMatchesLegacy pins the deduplicated irredundant to the
// copy-by-copy loop on covers with injected duplicates, shuffled so that
// copies of one cube interleave in the drop order with other cubes of
// equal literal and cover counts. Symmetric ON-sets (membership decided
// by the number of true variables) make such ties common.
func TestIrredundantMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	interleaved := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(7)
		var spec Spec
		if trial%2 == 0 {
			spec = randomSpec(rng, n, 0.5, 0)
		} else {
			weights := rng.Intn(1 << (n + 1))
			spec.NumVars = n
			for m := uint64(0); m < 1<<n; m++ {
				if weights&(1<<bits.OnesCount64(m)) != 0 {
					spec.On = append(spec.On, m)
				}
			}
		}
		on := newMintermMatrix(n, spec.On)
		var cover Cover
		distinct := 1 + rng.Intn(12)
		for i := 0; i < distinct; i++ {
			c := randomCube(rng, n)
			for copies := 1 + rng.Intn(4); copies > 0; copies-- {
				cover = append(cover, c.Clone())
			}
		}
		rng.Shuffle(len(cover), func(i, j int) { cover[i], cover[j] = cover[j], cover[i] })
		interleaved += countInterleaved(cover, on)
		want := legacyIrredundant(cover, on)
		got := irredundant(assignments(cover), on)
		if len(got) != len(want) {
			t.Fatalf("n=%d irredundant kept %d cubes, legacy %d\ncover %v\ngot %v\nwant %v", n, len(got), len(want), cover, got, want)
		}
		for i := range want {
			if c := got[i].cube(n); !c.Equal(want[i]) {
				t.Fatalf("n=%d cube %d: %v, legacy %v\ncover %v", n, i, c, want[i], cover)
			}
		}
	}
	if interleaved == 0 {
		t.Fatal("no copies interleaved with an equal-key cube: the drop order went untested")
	}
	t.Logf("%d interleavings of copies with equal-key cubes", interleaved)
}

// countInterleaved counts the cubes of cover that sit, in index order,
// between two copies of another cube with the same literal and cover
// counts: the cases where a copy's place in the drop order is not next
// to its siblings.
func countInterleaved(cover Cover, on *mintermMatrix) int {
	mask := make([]uint64, on.words)
	type key struct{ lits, covered int }
	keys := make([]key, len(cover))
	for i, c := range cover {
		on.coverMask(literals(c), mask)
		cnt := 0
		for _, mw := range mask {
			cnt += bits.OnesCount64(mw)
		}
		keys[i] = key{c.Literals(), cnt}
	}
	n := 0
	for i := range cover {
		for j := i + 1; j < len(cover); j++ {
			if !cover[j].Equal(cover[i]) {
				continue
			}
			for k := i + 1; k < j; k++ {
				if keys[k] == keys[i] && !cover[k].Equal(cover[i]) {
					n++
				}
			}
			break
		}
	}
	return n
}

// symmetricSpec draws a symmetric function over n variables: whether a
// minterm is ON, OFF or don't-care depends only on how many of its
// variables are true.
func symmetricSpec(rng *rand.Rand, n int) Spec {
	class := make([]int, n+1)
	for w := range class {
		class[w] = rng.Intn(3)
	}
	spec := Spec{NumVars: n}
	for m := uint64(0); m < 1<<n; m++ {
		switch class[bits.OnesCount64(m)] {
		case 0:
			spec.On = append(spec.On, m)
		case 1:
			spec.Off = append(spec.Off, m)
		}
	}
	return spec
}

// TestMinimizeMatchesLegacy pins Minimize, whose passes work on literal
// sets, to the Cube-based loop built on the legacy passes, on random
// specs of 1 to 10 variables and on symmetric specs, whose ties in
// every greedy order are common, under several pass limits.
func TestMinimizeMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%10
		spec := randomSpec(rng, n, 0.1+0.5*rng.Float64(), 0.1+0.4*rng.Float64())
		if trial%2 == 1 {
			spec = symmetricSpec(rng, n)
		}
		opt := Options{MaxPasses: []int{0, 1, 2, 3}[trial%4]}
		if err := matchLegacyMinimize(spec, opt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// matchLegacyMinimize compares Minimize with legacyMinimize on spec:
// the same error, or the same cubes in the same order.
func matchLegacyMinimize(spec Spec, opt Options) error {
	got, err := Minimize(spec, opt)
	want, werr := legacyMinimize(spec, opt)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		return fmt.Errorf("Minimize error %v, legacy %v", err, werr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("Minimize gave %v, legacy %v\nON %v\nOFF %v", got, want, spec.On, spec.Off)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("cube %d: %v, legacy %v\nON %v\nOFF %v", i, got[i], want[i], spec.On, spec.Off)
		}
	}
	return nil
}
