package sg

import "math/bits"

// Pair is an unordered state pair (A < B, or A == B for a merged class
// that is internally inconsistent).
type Pair struct{ A, B int }

// Conflicts is the result of CSC analysis on a state graph.
type Conflicts struct {
	// CSC lists pairs of states with equal full codes whose enabled
	// non-input signal sets differ; their codes must be separated.
	CSC []Pair
	// USC lists the remaining pairs of distinct states with equal full
	// codes (unique-state-coding violations that do not violate CSC).
	USC []Pair
	// LowerBound is the minimum number of state signals that could
	// possibly separate the conflicting states: the maximum over code
	// groups of ceil(log2(number of behaviour classes in the group)).
	LowerBound int
	// MaxGroup is the paper's Max_csc: the largest number of states
	// sharing one code.
	MaxGroup int
}

// N returns the number of CSC conflict pairs (the paper's N_csc).
func (c *Conflicts) N() int { return len(c.CSC) }

// fullCodes fills codes with the full code of every state, column-wise
// (one pass per state-signal column over a packed code array) instead
// of calling FullCode per state.
func fullCodes(g *Graph, codes []uint64) {
	active := g.Active
	for s := range codes {
		codes[s] = g.States[s].Code & active
	}
	for k := range g.StateSigs {
		bit := uint64(1) << (len(g.Base) + k)
		for s, p := range g.StateSigs[k].Phases {
			if p.Level() == 1 {
				codes[s] |= bit
			}
		}
	}
}

// codeGroups buckets the states of g by full code. Returns parallel
// slices: keys in ascending code order, and groups[i] holding the states
// with code keys[i] in ascending state order.
func codeGroups(g *Graph) ([]uint64, [][]int) {
	n := len(g.States)
	if n == 0 {
		return nil, nil
	}
	sc := scratchPool.Get().(*scratch)
	codes := sc.u64sFor(n)
	fullCodes(g, codes)
	keys, groups := GroupCodes(codes)
	scratchPool.Put(sc)
	return keys, groups
}

// GroupCodes buckets the indices of codes by code. It returns parallel
// slices: the distinct codes in ascending order, and for each the
// indices carrying it, in ascending order. It is the one grouping of
// the state-coding checks (the materialized and streaming conflict
// scans here and core's refinement USC list): a stable LSD radix sort over the packed codes (byte passes
// that are constant across all codes are skipped), with every group a
// slice of one shared permutation array, so the whole partition costs
// three flat allocations instead of a hash map.
func GroupCodes(codes []uint64) ([]uint64, [][]int) {
	n := len(codes)
	if n == 0 {
		return nil, nil
	}
	// perm escapes (the returned groups are slices of it); tmp does not.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sc := scratchFor(n)
	defer releaseScratch(n, sc)
	var orAll uint64
	andAll := ^uint64(0)
	for _, c := range codes {
		orAll |= c
		andAll &= c
	}
	diff := orAll ^ andAll
	tmp := sc.intsFor(n)
	src, dst := perm, tmp
	var counts [256]int
	for b := 0; b < 8; b++ {
		shift := uint(8 * b)
		if (diff>>shift)&0xff == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range src {
			counts[(codes[s]>>shift)&0xff]++
		}
		sum := 0
		for i := 0; i < 256; i++ {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, s := range src {
			d := (codes[s] >> shift) & 0xff
			dst[counts[d]] = s
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}

	distinct := 1
	for i := 1; i < n; i++ {
		if codes[perm[i]] != codes[perm[i-1]] {
			distinct++
		}
	}
	keys := make([]uint64, 0, distinct)
	groups := make([][]int, 0, distinct)
	for lo := 0; lo < n; {
		c := codes[perm[lo]]
		hi := lo + 1
		for hi < n && codes[perm[hi]] == c {
			hi++
		}
		keys = append(keys, c)
		groups = append(groups, perm[lo:hi:hi])
		lo = hi
	}
	return keys, groups
}

// EnabledNonInputsAll computes EnabledNonInputs for every state in one
// pass over the edge list, filling buf (reused when large enough)
// instead of walking each state's Out adjacency separately.
func (g *Graph) EnabledNonInputsAll(buf []uint64) []uint64 {
	n := len(g.States)
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	for _, e := range g.Edges {
		if e.Sig >= 0 && !g.Base[e.Sig].Input {
			buf[e.From] |= 1 << e.Sig
		}
	}
	return buf
}

// Analyze performs full CSC analysis: states are grouped by full code
// (base signals under the Active mask plus state-signal levels) and
// compared by enabled non-input signal sets.
func Analyze(g *Graph) *Conflicts {
	_, groups := codeGroups(g)
	// One shared enabled-mask column, filled by a single edge pass, with
	// a pooled backing.
	sc := scratchPool.Get().(*scratch)
	enabled := g.EnabledNonInputsAll(sc.u64sFor(0))
	res := analyzeGroups(groups, enabled)
	sc.u64s = enabled
	scratchPool.Put(sc)
	return res
}

// analyzeGroups is the CSC group scan shared by Analyze (graph states)
// and AnalyzeStream (streamed columns): groups partition the state
// indices by equal full code in ascending code order, enabled is the
// per-state enabled non-input mask. One sequential pass appends each
// group's pairs in that order.
func analyzeGroups(groups [][]int, enabled []uint64) *Conflicts {
	res := &Conflicts{}
	for _, states := range groups {
		res.MaxGroup = max(res.MaxGroup, len(states))
		// Distinct behaviour classes within the group: an insertion scan
		// over the (small) group beats a map allocation per group.
		classes := 0
		for i := 0; i < len(states); i++ {
			dup := false
			for j := 0; j < i; j++ {
				if enabled[states[j]] == enabled[states[i]] {
					dup = true
					break
				}
			}
			if !dup {
				classes++
			}
		}
		res.LowerBound = max(res.LowerBound, ceilLog2(classes))
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				p := Pair{states[i], states[j]}
				if enabled[states[i]] != enabled[states[j]] {
					res.CSC = append(res.CSC, p)
				} else {
					res.USC = append(res.USC, p)
				}
			}
		}
	}
	return res
}

// OutputConflicts analyses CSC restricted to one non-input signal o: two
// states conflict when they share a full code but imply different next
// values for o. This is the per-output criterion used on modular state
// graphs: o's logic function must be well defined on the visible code.
// impliedOf gives the set of implied values for a state (a merged state
// may carry both from its members; such a state conflicts with itself).
// The module stage lists a module's pairs with it; it is also the test
// oracle of the counting evaluator (QuotientCounts, OutputCounts), which
// input-set determination uses.
func OutputConflicts(g *Graph, impliedOf func(state int) (has0, has1 bool)) *Conflicts {
	_, groups := codeGroups(g)
	res := &Conflicts{}
	type imp struct{ has0, has1 bool }
	var imps []imp
	for _, states := range groups {
		res.MaxGroup = max(res.MaxGroup, len(states))
		imps = imps[:0]
		group0, group1 := false, false
		for _, s := range states {
			h0, h1 := impliedOf(s)
			imps = append(imps, imp{h0, h1})
			group0 = group0 || h0
			group1 = group1 || h1
			if h0 && h1 {
				res.CSC = append(res.CSC, Pair{s, s})
			}
		}
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				p := Pair{states[i], states[j]}
				if (imps[i].has0 && imps[j].has1) || (imps[i].has1 && imps[j].has0) {
					res.CSC = append(res.CSC, p)
				} else {
					res.USC = append(res.USC, p)
				}
			}
		}
		if group0 && group1 {
			res.LowerBound = 1
		}
	}
	return res
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
