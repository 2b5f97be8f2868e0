package sg

import (
	"math/bits"

	"asyncsyn/internal/par"
)

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

// fullCodes fills codes with the full code of every state. The serial
// path runs column-wise (one pass per state-signal column over a packed
// code array) instead of calling FullCode per state; large graphs fan
// the per-state computation out over the worker pool. Both orders
// produce identical codes.
func fullCodes(g *Graph, codes []uint64, workers int) {
	n := len(g.States)
	w := par.Workers(workers)
	if w > 1 && n >= 256 {
		chunk := (n + 4*w - 1) / (4 * w)
		nchunks := (n + chunk - 1) / chunk
		par.ForEachIndexed(nchunks, w, func(ci int) error {
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > n {
				hi = n
			}
			for s := lo; s < hi; s++ {
				codes[s] = g.FullCode(s)
			}
			return nil
		})
		return
	}
	active := g.Active
	for s := 0; s < n; s++ {
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
// with code keys[i] in ascending state order — the same fixed order the
// old map-based bucketing produced, for any worker count.
func codeGroups(g *Graph, workers int) ([]uint64, [][]int) {
	n := len(g.States)
	if n == 0 {
		return nil, nil
	}
	sc := scratchPool.Get().(*scratch)
	codes := sc.u64sFor(n)
	fullCodes(g, codes, workers)
	keys, groups := GroupCodes(codes)
	scratchPool.Put(sc)
	return keys, groups
}

// GroupCodes buckets the indices of codes by code. It returns parallel
// slices: the distinct codes in ascending order, and for each the
// indices carrying it, in ascending order. It is the one grouping of
// the state-coding checks (the materialized and streaming conflict
// scans here, csc.Prune's redundancy test and core's refinement USC
// list): a stable LSD radix sort over the packed codes (byte passes
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
func Analyze(g *Graph) *Conflicts { return AnalyzeWorkers(g, 1) }

// AnalyzeWorkers is Analyze with the group scans fanned out over a
// bounded worker pool (workers <= 0 means GOMAXPROCS). Each code group
// is independent, so groups are scanned in parallel and their pair
// lists concatenated in ascending code order — the exact order the
// sequential scan produces, for any worker count.
func AnalyzeWorkers(g *Graph, workers int) *Conflicts {
	_, groups := codeGroups(g, workers)
	// One shared enabled-mask column, filled by a single edge pass; the
	// group closures only read it. The backing is pooled: par.Map joins
	// all workers before returning, so the buffer is quiescent when it
	// goes back to the pool.
	sc := scratchPool.Get().(*scratch)
	enabled := g.EnabledNonInputsAll(sc.u64sFor(0))
	res := analyzeGroups(groups, enabled, workers)
	sc.u64s = enabled
	scratchPool.Put(sc)
	return res
}

// analyzeGroups is the CSC group scan shared by AnalyzeWorkers (graph
// states) and AnalyzeStream (streamed columns): groups partition the
// state indices by equal full code, enabled is the per-state enabled
// non-input mask. Groups are scanned in parallel and their pair lists
// concatenated in ascending code order, so the result is identical for
// any worker count.
func analyzeGroups(groups [][]int, enabled []uint64, workers int) *Conflicts {
	type groupRes struct {
		csc, usc []Pair
		classes  int
	}
	results, _ := par.Map(len(groups), workers, func(ki int) (groupRes, error) {
		states := groups[ki]
		var r groupRes
		// Distinct behaviour classes within the group: an insertion scan
		// over the (small) group beats a map allocation per group.
		for i := 0; i < len(states); i++ {
			dup := false
			for j := 0; j < i; j++ {
				if enabled[states[j]] == enabled[states[i]] {
					dup = true
					break
				}
			}
			if !dup {
				r.classes++
			}
		}
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				p := Pair{states[i], states[j]}
				if enabled[states[i]] != enabled[states[j]] {
					r.csc = append(r.csc, p)
				} else {
					r.usc = append(r.usc, p)
				}
			}
		}
		return r, nil
	})

	res := &Conflicts{}
	for ki, r := range results {
		if n := len(groups[ki]); n > res.MaxGroup {
			res.MaxGroup = n
		}
		res.CSC = append(res.CSC, r.csc...)
		res.USC = append(res.USC, r.usc...)
		if lb := ceilLog2(r.classes); lb > res.LowerBound {
			res.LowerBound = lb
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
//
// This one-worker form is the test oracle of the counting evaluator
// (QuotientCounts, OutputCounts), which input-set determination uses;
// the module stage lists a module's pairs with OutputConflictsWorkers.
func OutputConflicts(g *Graph, impliedOf func(state int) (has0, has1 bool)) *Conflicts {
	return OutputConflictsWorkers(g, impliedOf, 1)
}

// OutputConflictsWorkers is OutputConflicts over a bounded worker pool,
// with the same ordered-reduce guarantee as AnalyzeWorkers. impliedOf
// must be safe for concurrent calls (the probes built by Merged.ImpliedOf
// read a precomputed table and are).
func OutputConflictsWorkers(g *Graph, impliedOf func(state int) (has0, has1 bool), workers int) *Conflicts {
	_, groups := codeGroups(g, workers)

	type groupRes struct {
		csc, usc []Pair
		both     bool // group implies both values → lower bound 1
	}
	results, _ := par.Map(len(groups), workers, func(ki int) (groupRes, error) {
		states := groups[ki]
		var r groupRes
		type imp struct{ has0, has1 bool }
		imps := make([]imp, len(states))
		group0, group1 := false, false
		for i, s := range states {
			h0, h1 := impliedOf(s)
			imps[i] = imp{h0, h1}
			group0 = group0 || h0
			group1 = group1 || h1
			if h0 && h1 {
				r.csc = append(r.csc, Pair{s, s})
			}
		}
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				p := Pair{states[i], states[j]}
				if (imps[i].has0 && imps[j].has1) || (imps[i].has1 && imps[j].has0) {
					r.csc = append(r.csc, p)
				} else {
					r.usc = append(r.usc, p)
				}
			}
		}
		r.both = group0 && group1
		return r, nil
	})

	res := &Conflicts{}
	for ki, r := range results {
		if n := len(groups[ki]); n > res.MaxGroup {
			res.MaxGroup = n
		}
		res.CSC = append(res.CSC, r.csc...)
		res.USC = append(res.USC, r.usc...)
		if r.both && res.LowerBound == 0 {
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
