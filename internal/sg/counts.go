package sg

// QuotientCounts evaluates the ε-quotient of g with the signals in
// silenced removed, for one output, without building it: the numbers
// OutputConflicts would report on Quotient(silenced), from one
// union-find pass and a pass over the states per column (the implied
// values and each state signal), with no merged graph, edge map or pair
// list. Input-set determination (the paper's Figure 2)
// judges every candidate signal removal by these numbers alone.
//
// implied1[s] reports whether the output's implied value in state s is 1
// (g.ImpliedValue(s, o) == 1). The results:
//   - ok is Quotient's phase-join verdict (Figure 3); n and lb mean
//     something only when ok is true.
//   - n is -1, and lb 0, when some ε-class holds states implying both
//     values of the output: a self-conflict no state signal can repair.
//   - Otherwise n is N_csc, the sum over groups of classes sharing a
//     code of (classes implying 0) × (classes implying 1), and lb is 1
//     when some group holds both values, else 0.
//
// A class's code is the full code its state in the built quotient would
// have: the active base bits plus the level of each joined state-signal
// phase.
func (g *Graph) QuotientCounts(silenced uint64, implied1 []bool) (n, lb int, ok bool) {
	ns := len(g.States)
	sc := scratchFor(ns)
	defer releaseScratch(ns, sc)
	cls := sc.ints2For(ns)
	nc := g.epsClasses(silenced, sc.intsFor(ns), cls)

	// Each class's base code comes from its smallest member, the first
	// one the scan meets, as in Quotient. vals collects the output values
	// the members imply: bit 0 for 0, bit 1 for 1.
	codes := sc.u64sFor(nc)
	vals := sc.flagsFor(nc)
	clear(vals)
	active := g.Active &^ silenced
	next := 0
	for s, c := range cls {
		if c == next {
			codes[c] = g.States[s].Code & active
			next++
		}
		if implied1[s] {
			vals[c] |= 2
		} else {
			vals[c] |= 1
		}
	}

	// Each state signal's joined phase sets its bit of the class codes;
	// a failed join is Quotient's !ok.
	sets := sc.setsFor(nc)
	for k, ss := range g.StateSigs {
		clear(sets)
		for s, c := range cls {
			sets[c] = sets[c].Add(ss.Phases[s])
		}
		bit := uint64(1) << (len(g.Base) + k)
		for c, set := range sets {
			p, jok := JoinPhases(set)
			if !jok {
				return 0, 0, false
			}
			if p.Level() == 1 {
				codes[c] |= bit
			}
		}
	}

	// Class codes implying 0 fill part from the front, those implying 1
	// from the back.
	part := sc.u64s2For(nc)
	zeros, ones := 0, nc
	for c, v := range vals {
		switch v {
		case 1:
			part[zeros] = codes[c]
			zeros++
		case 2:
			ones--
			part[ones] = codes[c]
		default:
			return -1, 0, true
		}
	}
	n, lb = countPairs(part[:zeros], part[ones:], codes)
	return n, lb, true
}

// OutputCounts is QuotientCounts on g itself, with no merging at all —
// not even along dummy edges — so every state is its own class under
// its full code: the (N_csc, L_b) OutputConflicts reports on g for the
// same implied values. It is the baseline a candidate removal must not
// worsen.
func (g *Graph) OutputCounts(implied1 []bool) (n, lb int) {
	ns := len(g.States)
	sc := scratchFor(ns)
	defer releaseScratch(ns, sc)
	codes := sc.u64sFor(ns)
	fullCodes(g, codes)
	part := sc.u64s2For(ns)
	zeros, ones := 0, ns
	for s, one := range implied1 {
		if one {
			ones--
			part[ones] = codes[s]
		} else {
			part[zeros] = codes[s]
			zeros++
		}
	}
	return countPairs(part[:zeros], part[ones:], codes)
}

// countPairs returns the conflict statistics of units with the codes in
// zero (implying 0) and one (implying 1): N_csc, the sum over codes of
// the units implying 0 times those implying 1, and L_b, 1 when some code
// has both. It sorts both slices in place; tmp is sort scratch at least
// as long as either.
func countPairs(zero, one, tmp []uint64) (n, lb int) {
	sortCodes(zero, tmp)
	sortCodes(one, tmp)
	for i, j := 0, 0; i < len(zero) && j < len(one); {
		switch c := zero[i]; {
		case c < one[j]:
			i++
		case c > one[j]:
			j++
		default:
			i0, j0 := i, j
			for i < len(zero) && zero[i] == c {
				i++
			}
			for j < len(one) && one[j] == c {
				j++
			}
			n += (i - i0) * (j - j0)
			lb = 1
		}
	}
	return n, lb
}

// sortCodes sorts a in ascending order with an LSD radix sort over the
// bytes that vary across a (as GroupCodes sorts its permutation),
// using tmp as the second buffer.
func sortCodes(a, tmp []uint64) {
	if len(a) < 2 {
		return
	}
	var orAll uint64
	andAll := ^uint64(0)
	for _, c := range a {
		orAll |= c
		andAll &= c
	}
	diff := orAll ^ andAll
	src, dst := a, tmp[:len(a)]
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		counts = [256]int{}
		for _, c := range src {
			counts[(c>>shift)&0xff]++
		}
		sum := 0
		for d, k := range counts {
			counts[d] = sum
			sum += k
		}
		for _, c := range src {
			d := (c >> shift) & 0xff
			dst[counts[d]] = c
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
