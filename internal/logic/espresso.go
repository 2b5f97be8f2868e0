package logic

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/synerr"
)

// Spec is a single-output incompletely specified function given by
// explicit ON and OFF minterm lists over NumVars variables; every other
// point is a don't-care. This is exactly the shape produced by state
// graph logic extraction: reachable state codes are care points,
// unreachable codes are free.
type Spec struct {
	NumVars int
	On      []uint64
	Off     []uint64
}

// Validate checks that the spec is well formed (no ON/OFF overlap, all
// minterms within range). The overlap test is a binary search in the ON
// list, which state-graph extraction delivers sorted; an unsorted list
// is searched through a sorted copy.
func (s Spec) Validate() error {
	if s.NumVars < 0 || s.NumVars > 63 {
		return fmt.Errorf("logic: %d variables out of range", s.NumVars)
	}
	limit := uint64(1) << s.NumVars
	for _, m := range s.On {
		if m >= limit {
			return fmt.Errorf("logic: ON minterm %d out of range", m)
		}
	}
	on := s.On
	if !slices.IsSorted(on) {
		on = slices.Clone(on)
		slices.Sort(on)
	}
	for _, m := range s.Off {
		if m >= limit {
			return fmt.Errorf("logic: OFF minterm %d out of range", m)
		}
		if _, both := slices.BinarySearch(on, m); both {
			return fmt.Errorf("logic: minterm %d is both ON and OFF", m)
		}
	}
	return nil
}

// Options tunes Minimize.
type Options struct {
	// MaxPasses bounds the EXPAND/IRREDUNDANT/REDUCE iterations (default 8;
	// the loop stops earlier at a fixed point).
	MaxPasses int
}

// Minimize computes a prime, irredundant cover of the ON-set that avoids
// every OFF minterm, using the ESPRESSO strategy: greedy EXPAND of each
// cube against the OFF list, IRREDUNDANT set-covering over the ON
// minterms, then REDUCE + re-EXPAND passes until the literal count stops
// improving.
func Minimize(spec Spec, opt Options) (Cover, error) {
	return MinimizeContext(context.Background(), spec, opt)
}

// MinimizeContext is Minimize under a cancellation context, polled
// between EXPAND/IRREDUNDANT/REDUCE passes so a canceled synthesis run
// abandons the minimization promptly (with an error matching
// synerr.ErrCanceled).
func MinimizeContext(ctx context.Context, spec Spec, opt Options) (Cover, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxPasses == 0 {
		opt.MaxPasses = 8
	}
	if len(spec.On) == 0 {
		return Cover{}, nil
	}
	// Both care sets are explicit minterm lists, so every pass below works
	// on bit-sliced column views: one membership bitset per variable over
	// the minterm index. EXPAND's OFF-set counts and IRREDUNDANT/REDUCE's
	// cube→minterm incidence all reduce to word-parallel AND/ANDNOT plus
	// popcounts — the same counts and tie-breaks as the row-at-a-time
	// scans, 64 minterms per operation.
	off := newMintermMatrix(spec.NumVars, spec.Off)
	on := newMintermMatrix(spec.NumVars, spec.On)

	// Initial cover: one cube per ON minterm, expanded. The minterm
	// cubes of one function share most of their EXPAND work (on the k=5
	// handshake, 12 096 minterms expand into 16 distinct primes through
	// 37 distinct partial assignments), so each pass expands all its
	// cubes in one walk over the partial assignments they reach, with
	// one OFF-count memo serving every pass of this minimization. Cubes
	// are held as literal sets through every pass; only the returned
	// cover is built as Cubes.
	x := newExpander(off, len(spec.On))
	mc := metrics.From(ctx)
	mc.Add(metrics.EspressoExpand, 1)
	cover := make([]assignment, len(spec.On))
	full := uint64(1)<<spec.NumVars - 1
	for i, m := range spec.On {
		cover[i] = assignment{vars: full, vals: m}
	}
	x.expand(cover, 0)
	cover = irredundant(cover, on)

	best := cover
	bestLits := literalCount(cover)
	for pass := 1; pass < opt.MaxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, synerr.Canceled(err)
		}
		mc.Add(metrics.EspressoReduce, 1)
		mc.Add(metrics.EspressoExpand, 1)
		next := reduce(cover, on)
		x.expand(next, pass)
		next = irredundant(next, on)
		lits := literalCount(next)
		if lits >= bestLits {
			break
		}
		best, bestLits = next, lits
		cover = next
	}
	out := make(Cover, len(best))
	for i, a := range best {
		out[i] = a.cube(spec.NumVars)
	}
	return out, nil
}

// mintermMatrix is a bit-sliced view of a minterm list: cols[v] is the
// membership bitset of variable v over the minterm index (bit i set when
// minterm i has variable v true), full masks the valid index range.
type mintermMatrix struct {
	nvars, n, words int
	ms              []uint64
	cols            [][]uint64
	full            []uint64
}

func newMintermMatrix(nvars int, ms []uint64) *mintermMatrix {
	w := (len(ms) + 63) / 64
	flat := make([]uint64, (nvars+1)*w) // the columns, then full
	m := &mintermMatrix{nvars: nvars, n: len(ms), words: w, ms: ms,
		cols: make([][]uint64, nvars), full: flat[nvars*w:]}
	for v := range m.cols {
		m.cols[v] = flat[v*w : (v+1)*w]
	}
	for i, mt := range ms {
		bit := uint64(1) << (i % 64)
		m.full[i/64] |= bit
		for vs := mt & (1<<nvars - 1); vs != 0; vs &= vs - 1 {
			m.cols[bits.TrailingZeros64(vs)][i/64] |= bit
		}
	}
	return m
}

// assignment is a partial assignment of the variables: the variables
// in vars, each with its bit of vals (vals is zero outside vars). It is
// also the cube with those literals, the form ESPRESSO's passes work on.
type assignment struct{ vars, vals uint64 }

// literalCount returns the number of literals in cover.
func literalCount(cover []assignment) int {
	n := 0
	for _, a := range cover {
		n += bits.OnesCount64(a.vars)
	}
	return n
}

// coverMask fills dst (words long) with the bitset of minterms that
// agree with a: the conjunction of the matching columns of a's literals.
func (m *mintermMatrix) coverMask(a assignment, dst []uint64) {
	copy(dst, m.full)
	for vs := a.vars; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
		col := m.cols[v]
		if a.vals&(1<<v) != 0 {
			for w := range dst {
				dst[w] &= col[w]
			}
		} else {
			for w := range dst {
				dst[w] &^= col[w]
			}
		}
	}
}

// offCounts memoizes the one question EXPAND asks of the OFF-set: for a
// partial assignment, how many OFF minterms agree with it, and how many
// of those have each variable true. Entries live in a flat arena at
// stride nvars+1 (agreeing rows first, then one true-count per
// variable); a miss costs one AND/popcount pass over the OFF columns.
// The entries' assignments are indexed by an open-addressed table of
// entry numbers with linear probing, kept at most half full, so a
// lookup costs a hash and a compare or two, and growing the table
// re-places 4-byte slots and doubles the room of the keys and the
// arena with it.
type offCounts struct {
	off    *mintermMatrix
	keys   []assignment // per entry
	slots  []int32      // entry number plus one, 0 when empty; a power of two of them
	counts []int32
	mask   []uint64
}

// newOffCounts sizes the memo for a typical function: of the 141
// minimizations of a Table 1 pass, half make at most 9 entries and nine
// in ten at most 30; larger ones grow by doubling.
func newOffCounts(off *mintermMatrix) offCounts {
	return offCounts{off: off, keys: make([]assignment, 0, 16), slots: make([]int32, 32),
		counts: make([]int32, 0, 16*(off.nvars+1)), mask: make([]uint64, off.words)}
}

// home returns a's first slot.
func (oc *offCounts) home(a assignment) int {
	h := a.vars*0x9e3779b97f4a7c15 ^ a.vals*0xc2b2ae3d27d4eb4f
	return int((h ^ h>>29) & uint64(len(oc.slots)-1))
}

// lookup returns a's entry. The slice aliases the arena, so it is only
// valid until the next lookup.
func (oc *offCounts) lookup(a assignment) []int32 {
	m, stride := oc.off, oc.off.nvars+1
	mod := len(oc.slots) - 1
	i := oc.home(a)
	for ; oc.slots[i] != 0; i = (i + 1) & mod {
		if e := int(oc.slots[i] - 1); oc.keys[e] == a {
			return oc.counts[e*stride : (e+1)*stride]
		}
	}
	if 2*(len(oc.keys)+1) > len(oc.slots) {
		oc.grow()
		mod = len(oc.slots) - 1
		for i = oc.home(a); oc.slots[i] != 0; i = (i + 1) & mod {
		}
	}
	oc.keys = append(oc.keys, a)
	oc.slots[i] = int32(len(oc.keys))
	mask := oc.mask
	m.coverMask(a, mask)
	at := len(oc.counts)
	oc.counts = append(oc.counts, make([]int32, stride)...)
	cnt := oc.counts[at : at+stride]
	for w, mw := range mask {
		if mw == 0 {
			continue
		}
		cnt[0] += int32(bits.OnesCount64(mw))
		for v, col := range m.cols {
			cnt[1+v] += int32(bits.OnesCount64(mw & col[w]))
		}
	}
	return cnt
}

// grow doubles the table, re-places every entry and reserves the keys
// and the arena for as many entries as the table takes before its next
// growth, so all three grow geometrically together.
func (oc *offCounts) grow() {
	oc.slots = make([]int32, 2*len(oc.slots))
	room := len(oc.slots)/2 - len(oc.keys)
	oc.keys = slices.Grow(oc.keys, room)
	oc.counts = slices.Grow(oc.counts, room*(oc.off.nvars+1))
	mod := len(oc.slots) - 1
	for e, a := range oc.keys {
		i := oc.home(a)
		for oc.slots[i] != 0 {
			i = (i + 1) & mod
		}
		oc.slots[i] = int32(e + 1)
	}
}

// expander runs ESPRESSO's EXPAND over all the cubes of a pass at once.
// Each cube grows into a prime that meets no OFF minterm: the literals
// kept are chosen by greedy column covering of the blocking matrix, each
// step keeping the literal that excludes the most OFF minterms not yet
// excluded, the first in the cube's literal order rotated by `rot`
// among equals (so successive passes explore different primes), until
// every OFF minterm is excluded; the primality pass then raises, in
// ascending variable order, each kept literal but the last whose
// removal lets no OFF minterm in.
//
// The minterms still to exclude after keeping the literals of S are
// exactly the OFF minterms that agree with the cube on S, and literal v
// excludes those among them whose value of v differs from the cube's.
// So every count a step needs is the offCounts entry of the partial
// assignment kept so far, and that assignment, with the cube's rotated
// literal order, decides the step. The walk therefore visits decision
// states: the cubes of one literal set (every minterm cube of the first
// pass; each literal set of a reduced cover in later passes, since the
// rotated order depends on it) start together at the empty assignment,
// each state makes one lookup, each member picks the literal it keeps
// there, and the members keeping one literal go on together to its
// child state. A child whose literal excludes every remaining OFF
// minterm is a terminal: it runs the primality pass once and gives the
// prime to all its members. Within one literal set, members share a
// state exactly when they agree on the literals kept so far, so each
// state is visited once, and its work is proportional to its members,
// an index range of one permutation array, never to the ON-set.
type expander struct {
	offCounts
	cover []assignment // the pass's cubes, overwritten by their primes
	// ms is the permutation array: each state's members are a range of
	// it, with the literal each member keeps at that state.
	ms []member
	// rotated[:nrot] is the current literal set's variables in rotated
	// order.
	rotated [64]int8
	nrot    int
}

// member is one cube of a pass: its index in the cover and the literal
// it keeps at the state being split (2v plus its value of v, with
// closes set when the literal excludes every remaining OFF minterm,
// or -1 when no literal excludes any).
type member struct{ idx, lit int32 }

const closes = 1 << 7

// newExpander returns an expander for passes of up to n cubes against
// the OFF-set off.
func newExpander(off *mintermMatrix, n int) *expander {
	return &expander{offCounts: newOffCounts(off), ms: make([]member, 0, n)}
}

// expand replaces each cube of cover with its prime under rotation rot.
// A cube that meets the OFF-set (a caller bug) is left as it is.
func (x *expander) expand(cover []assignment, rot int) {
	x.cover = cover
	x.ms = x.ms[:0]
	mixed := false
	for i, a := range cover {
		x.ms = append(x.ms, member{idx: int32(i)})
		mixed = mixed || a.vars != cover[0].vars
	}
	if mixed {
		slices.SortStableFunc(x.ms, func(p, q member) int {
			return cmp.Compare(cover[p.idx].vars, cover[q.idx].vars)
		})
	}
	for lo := 0; lo < len(x.ms); {
		vars := cover[x.ms[lo].idx].vars
		hi := lo + 1
		for hi < len(x.ms) && cover[x.ms[hi].idx].vars == vars {
			hi++
		}
		L := bits.OnesCount64(vars)
		x.nrot = 0
		for vs := vars; vs != 0; vs &= vs - 1 {
			x.rotated[(x.nrot-rot%L+L)%L] = int8(bits.TrailingZeros64(vs))
			x.nrot++
		}
		x.walk(assignment{}, -1, lo, hi)
		lo = hi
	}
}

// walk splits the members ms[lo:hi], which have kept the literals of
// kept (last the latest), by the literal each keeps next.
func (x *expander) walk(kept assignment, last, lo, hi int) {
	cnt := x.lookup(kept)
	total := cnt[0]
	if total == 0 {
		x.prime(kept, last, lo, hi)
		return
	}
	ms := x.ms
	for i := lo; i < hi; i++ {
		vals := x.cover[ms[i].idx].vals
		best, bestC := -1, int32(0)
		for _, v := range x.rotated[:x.nrot] {
			excl := cnt[1+v] // agreeing rows with v true: what v' excludes
			if vals&(1<<v) != 0 {
				excl = total - excl
			}
			if excl > bestC {
				best, bestC = int(v), excl
			}
		}
		lit := int32(-1)
		if best >= 0 {
			lit = int32(2*best) | int32(vals>>best&1)
			if bestC == total {
				lit |= closes
			}
		}
		ms[i].lit = lit
	}
	// Move the members keeping the first member's literal to the front
	// and follow them; cnt is not read again, so the lookups below may
	// grow the memo.
	for lo < hi {
		lit := ms[lo].lit
		mid := lo + 1
		for i := mid; i < hi; i++ {
			if ms[i].lit == lit {
				ms[i], ms[mid] = ms[mid], ms[i]
				mid++
			}
		}
		if lit >= 0 {
			v := int(lit&^closes) >> 1
			child := assignment{kept.vars | 1<<v, kept.vals | uint64(lit&1)<<v}
			if lit&closes != 0 {
				x.prime(child, v, lo, mid)
			} else {
				x.walk(child, v, lo, mid)
			}
		}
		// lit < 0: an OFF minterm agrees with every literal, so the
		// cubes meet the OFF-set and stay as they are.
		lo = mid
	}
}

// prime runs the primality pass on kept, which excludes every OFF
// minterm, and gives the prime to the members ms[lo:hi]. With kept
// excluding every OFF minterm, raising kept literal v keeps the cube
// OFF-free exactly when no OFF minterm agrees with kept less v. The
// literal kept last is needed: the ones kept before it left OFF
// minterms, and primality only ever takes literals away. So the pass
// skips it without a lookup, and the prime depends on kept alone: the
// literal kept last on any other path to kept is needed too.
func (x *expander) prime(kept assignment, last, lo, hi int) {
	for vs := kept.vars; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
		if v == last {
			continue
		}
		raised := assignment{kept.vars &^ (1 << v), kept.vals &^ (1 << v)}
		if x.lookup(raised)[0] == 0 {
			kept = raised
		}
	}
	for _, m := range x.ms[lo:hi] {
		x.cover[m.idx] = kept
	}
}

// cube returns the n-variable cube with a's literals.
func (a assignment) cube(n int) Cube {
	c := NewCube(n)
	for vs := a.vars; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros64(vs)
		if a.vals&(1<<v) != 0 {
			c.SetVar(v, VTrue)
		} else {
			c.SetVar(v, VFalse)
		}
	}
	return c
}

// irredundant removes cubes until every remaining cube is needed to cover
// some ON minterm: essential cubes (sole cover of a minterm) are kept,
// then the rest are dropped greedily in a fixed order: most literals
// first, so the kept cover is cheap; then fewest covered minterms; then
// lowest index. A cube is dropped when every minterm it covers has
// another live cover.
//
// The initial cover holds one expanded cube per ON minterm, mostly
// copies of a few primes, so the drop loop runs over distinct cubes.
// Copies of a cube share their literal and cover counts, so they meet
// in the drop order by index, the highest last. Every copy before the
// last is dropped, since the last still covers its minterms. At the
// last copy the others are gone, and the test asks whether some other
// cube still covers each of its minterms, however many copies that
// cube has left. So each distinct cube counts once, its test runs at
// its last copy's place in the order, and the result is the surviving
// last copies in index order, exactly what dropping copy by copy keeps.
//
// The cube→minterm incidence is deliberately NOT materialized: on dense
// instances it is quadratic in |cover|·|on| and dominated the whole
// pipeline's peak heap (a gigabyte on the k=5 scaling point). Each
// candidate instead recomputes its covered-minterm bitset from the
// column view into one shared buffer and tests it against the bitset of
// minterms with at most one cover left.
func irredundant(cover []assignment, on *mintermMatrix) []assignment {
	last := make(map[assignment]int) // cube → index of its last copy
	for ci, a := range cover {
		last[a] = ci
	}
	type cand struct{ ci, lits, covered int }
	cands := make([]cand, 0, len(last))
	for _, ci := range last {
		cands = append(cands, cand{ci: ci})
	}
	W := on.words
	vc := &vertCounter{W: W} // minterm → #covering distinct cubes, bit-planed
	mask := make([]uint64, W)
	for i := range cands {
		a := cover[cands[i].ci]
		on.coverMask(a, mask)
		for _, mw := range mask {
			cands[i].covered += bits.OnesCount64(mw)
		}
		cands[i].lits = bits.OnesCount64(a.vars)
		vc.add(mask)
	}
	slices.SortFunc(cands, func(x, y cand) int {
		return cmp.Or(cmp.Compare(y.lits, x.lits), cmp.Compare(x.covered, y.covered), cmp.Compare(x.ci, y.ci))
	})
	// atMost marks minterms with a single remaining cover: a cube is
	// removable exactly when its mask avoids all of them.
	atMost := make([]uint64, W)
	for w := 0; w < W; w++ {
		atMost[w] = on.full[w] &^ vc.atLeast2(w)
	}
	keep := make([]int, 0, len(cands))
	for _, cd := range cands {
		on.coverMask(cover[cd.ci], mask)
		removable := true
		for w := range mask {
			if mask[w]&atMost[w] != 0 {
				removable = false
				break
			}
		}
		if !removable {
			keep = append(keep, cd.ci)
			continue
		}
		vc.sub(mask)
		for w, mw := range mask {
			if mw != 0 {
				atMost[w] = on.full[w] &^ vc.atLeast2(w)
			}
		}
	}
	slices.Sort(keep)
	out := make([]assignment, len(keep))
	for i, ci := range keep {
		out[i] = cover[ci]
	}
	return out
}

// vertCounter keeps one small counter per bitset row, stored vertically
// as bit-planes: planes[p][w] holds bit p of the counts of rows
// w*64..w*64+63. Adding or subtracting a row mask is a ripple
// carry/borrow across planes — amortized a couple of word operations per
// touched word, where per-row updates would cost one indexed
// read-modify-write per set bit.
type vertCounter struct {
	W      int
	planes [][]uint64
}

func (vc *vertCounter) add(mask []uint64) {
	for w, m := range mask {
		for p := 0; m != 0; p++ {
			if p == len(vc.planes) {
				vc.planes = append(vc.planes, make([]uint64, vc.W))
			}
			pl := vc.planes[p]
			carry := pl[w] & m
			pl[w] ^= m
			m = carry
		}
	}
}

// sub decrements the rows in mask; counts must be positive there.
func (vc *vertCounter) sub(mask []uint64) {
	for w, m := range mask {
		for p := 0; m != 0; p++ {
			pl := vc.planes[p]
			borrow := m &^ pl[w]
			pl[w] ^= m
			m = borrow
		}
	}
}

// atLeast2 returns the rows of word w with a count of two or more.
func (vc *vertCounter) atLeast2(w int) uint64 {
	var or uint64
	for p := 1; p < len(vc.planes); p++ {
		or |= vc.planes[p][w]
	}
	return or
}

// reduce sequentially shrinks each cube to the supercube of the ON
// minterms that the rest of the (partially reduced) cover does not
// already cover, giving the following EXPAND a different starting point.
// Unlike a simultaneous shrink, the sequential form preserves coverage
// of every ON minterm; cubes left with no private minterms are dropped.
// It only ever runs on post-IRREDUNDANT covers, so materializing the
// per-cube cover masks is cheap. The supercube of minterms keeps the
// literals on which they all agree: each further minterm m drops the
// literals whose value differs from m's.
func reduce(cover []assignment, on *mintermMatrix) []assignment {
	W := on.words
	counts := make([]int32, on.n)
	flat := make([]uint64, len(cover)*W)
	for ci, a := range cover {
		m := flat[ci*W : (ci+1)*W]
		on.coverMask(a, m)
		for w, mw := range m {
			for ; mw != 0; mw &= mw - 1 {
				counts[w*64+bits.TrailingZeros64(mw)]++
			}
		}
	}
	all := uint64(1)<<on.nvars - 1
	out := make([]assignment, 0, len(cover))
	for ci := range cover {
		mask := flat[ci*W : (ci+1)*W]
		var sup assignment
		first := true
		for w, mw := range mask {
			for ; mw != 0; mw &= mw - 1 {
				mi := w*64 + bits.TrailingZeros64(mw)
				if counts[mi] != 1 { // another cube (in its current form) covers it
					continue
				}
				if m := on.ms[mi]; first {
					sup, first = assignment{all, m}, false
				} else {
					sup.vars &^= sup.vals ^ m
					sup.vals &= sup.vars
				}
			}
		}
		if first {
			// Fully redundant at this point: drop it (its minterms stay
			// covered by the other cubes' counts).
			for w, mw := range mask {
				for ; mw != 0; mw &= mw - 1 {
					counts[w*64+bits.TrailingZeros64(mw)]--
				}
			}
			continue
		}
		// Release the minterms the shrunk cube no longer covers.
		for w, mw := range mask {
			for ; mw != 0; mw &= mw - 1 {
				mi := w*64 + bits.TrailingZeros64(mw)
				if (on.ms[mi]^sup.vals)&sup.vars != 0 { // a literal of sup excludes it
					counts[mi]--
				}
			}
		}
		out = append(out, sup)
	}
	return out
}

// Verify checks the fundamental cover contract against a spec: every ON
// minterm covered, no OFF minterm covered, and primality/irredundancy of
// the result. It returns a list of violations (empty = clean).
func Verify(cover Cover, spec Spec) []string {
	var bad []string
	off := make(Cover, len(spec.Off))
	for i, m := range spec.Off {
		off[i] = FromMinterm(spec.NumVars, m)
	}
	for _, m := range spec.On {
		if !cover.CoversMinterm(m) {
			bad = append(bad, fmt.Sprintf("ON minterm %d uncovered", m))
		}
	}
	for i, c := range cover {
		if off.IntersectsAny(c) {
			bad = append(bad, fmt.Sprintf("cube %d intersects OFF-set", i))
		}
		// Primality: no single literal can be raised.
		for v := 0; v < c.N(); v++ {
			val := c.Var(v)
			if val != VTrue && val != VFalse {
				continue
			}
			t := c.Clone()
			t.SetVar(v, VDash)
			if !off.IntersectsAny(t) {
				bad = append(bad, fmt.Sprintf("cube %d not prime at var %d", i, v))
			}
		}
	}
	// Irredundancy over ON minterms.
	for i := range cover {
		rest := make(Cover, 0, len(cover)-1)
		rest = append(rest, cover[:i]...)
		rest = append(rest, cover[i+1:]...)
		needed := false
		for _, m := range spec.On {
			if cover[i].CoversMinterm(m) && !rest.CoversMinterm(m) {
				needed = true
				break
			}
		}
		if !needed {
			bad = append(bad, fmt.Sprintf("cube %d redundant", i))
		}
	}
	return bad
}
