package sg

import (
	"fmt"

	"asyncsyn/internal/stg"
)

// Stream is the compact column view of an expanded, phase-free state
// graph. The streaming wave expansion (ExpandStream) fills it without
// ever materializing the expanded Graph: per state it keeps only the
// four words every downstream consumer needs — the raw code, the
// enabled non-input mask, the implied-next-value bits and the
// originating pre-expansion state — instead of the edge list and the
// Out/In adjacency, which dominate the materialized graph's footprint.
// Conflict analysis (AnalyzeStream), logic derivation (FunctionTable)
// and refinement-conflict mapping (Origin) all run off these columns
// with results bit-identical to the materialized path.
type Stream struct {
	Name    string
	Base    []SignalInfo // base signals of the expanded graph (original + state signals)
	Active  uint64       // visible-signal mask over Base
	Initial int

	Codes   []uint64 // raw state codes (same bits as Graph.States[s].Code)
	Enabled []uint64 // per-state EnabledNonInputs mask
	Implied []uint64 // per-state implied next value, one bit per Base signal
	Origin  []int    // originating state in the pre-expansion graph

	// Waves is the number of BFS waves the expansion emitted and
	// PeakFrontier the widest single wave.
	Waves        int
	PeakFrontier int
}

// NumStates returns the number of expanded states.
func (st *Stream) NumStates() int { return len(st.Codes) }

// InitialCode returns the code of the initial state.
func (st *Stream) InitialCode() uint64 { return st.Codes[st.Initial] }

// SignalIndex returns the Base index of the named signal.
func (st *Stream) SignalIndex(name string) (int, bool) {
	for i, b := range st.Base {
		if b.Name == name {
			return i, true
		}
	}
	return -1, false
}

// ImpliedValue returns the next value signal sig must take from state s
// (the Stream counterpart of Graph.ImpliedValue).
func (st *Stream) ImpliedValue(s, sig int) uint8 {
	return uint8((st.Implied[s] >> sig) & 1)
}

// FunctionTable derives the implied-value table of non-input signal sig
// projected onto supportMask, exactly as Graph.FunctionTable does on the
// materialized expanded graph (both share tableOver).
func (st *Stream) FunctionTable(sig int, supportMask uint64) (*Table, error) {
	return tableOver(st.Base, sig, supportMask, len(st.Codes),
		func(s int) uint64 { return st.Codes[s] },
		func(s int) uint8 { return uint8((st.Implied[s] >> sig) & 1) })
}

// AnalyzeStream performs the same full CSC analysis as Analyze, but
// over streamed columns instead of a materialized graph: states are
// grouped by full code (raw code under the Active mask — a streamed
// graph is phase-free, so there are no state-signal columns to add) and
// compared by enabled non-input signal sets.
func AnalyzeStream(st *Stream) *Conflicts {
	n := len(st.Codes)
	if n == 0 {
		return &Conflicts{}
	}
	sc := scratchPool.Get().(*scratch)
	codes := sc.u64sFor(n)
	for i, c := range st.Codes {
		codes[i] = c & st.Active
	}
	_, groups := GroupCodes(codes)
	res := analyzeGroups(groups, st.Enabled)
	scratchPool.Put(sc)
	return res
}

// WaveState is one expanded state as the streaming expansion emits it:
// states arrive in ascending Index order (the same interning order the
// materializing Expand assigns), grouped into BFS waves by distance
// from the initial state.
type WaveState struct {
	Index   int
	Origin  int    // originating pre-expansion state
	Wave    int    // BFS wave (0 = initial state)
	Code    uint64 // raw expanded code (original code | state-signal levels)
	Enabled uint64 // enabled non-input signals
	Implied uint64 // implied next value, one bit per signal
}

// ExpandWaves is the frontier iterator underneath ExpandStream: it runs
// the §3.5 expansion as a breadth-first traversal and hands each
// expanded state to emit exactly once, in the same index order the
// materializing Expand would assign (its work-list is a FIFO queue, so
// interning order is BFS order; a wave is one BFS level). Per state it
// retains only the interning map and the frontier queue — no edges, no
// adjacency — so peak heap scales with the state count times a few
// words instead of the full graph. Returns the wave count and the
// widest wave. An emit error aborts the traversal and is returned
// as-is.
//
// When the graph has no state-signal columns there is nothing to
// expand: states are emitted in their existing order as one wave, with
// Origin the identity — mirroring Expand's clone-with-identity-Origin
// fast path without the clone.
func (g *Graph) ExpandWaves(emit func(WaveState) error) (waves, peakFrontier int, err error) {
	m := len(g.StateSigs)
	if len(g.Base)+m > MaxSignals {
		return 0, 0, fmt.Errorf("sg: expansion exceeds %d signals", MaxSignals)
	}
	if m == 0 {
		n := len(g.States)
		for s := 0; s < n; s++ {
			ws := WaveState{
				Index:   s,
				Origin:  s,
				Wave:    0,
				Code:    g.States[s].Code,
				Enabled: g.EnabledNonInputs(s),
				Implied: g.impliedMask(s),
			}
			if err := emit(ws); err != nil {
				return 0, 0, err
			}
		}
		return 1, n, nil
	}

	nb := len(g.Base)
	inputMask := uint64(0)
	for i, b := range g.Base {
		if b.Input {
			inputMask |= 1 << i
		}
	}
	// Inserted state signals are non-input, so inputMask needs no
	// extension past nb.

	// The interning map must span all discovered states (dedup), but the
	// queue only needs the discovered-but-unprocessed window — the BFS
	// frontier. The processed prefix is compacted away once it dominates
	// the slice, so the queue's footprint tracks the frontier width, not
	// the total state count.
	index := expandIndexPool.Get().(map[xstate]int)
	var queue []xstate
	head := 0 // queue[head:] is the frontier; head counts processed entries still in the slice
	next := 0 // total states discovered = next absolute state index
	push := func(s xstate) int {
		if i, ok := index[s]; ok {
			return i
		}
		i := next
		next++
		index[s] = i
		queue = append(queue, s)
		return i
	}

	initLevels := func(st int) uint64 {
		var x uint64
		for k, ss := range g.StateSigs {
			if ss.Phases[st].Level() == 1 {
				x |= 1 << k
			}
		}
		return x
	}
	compat := func(x uint64, st int) bool {
		for k, ss := range g.StateSigs {
			lvl := (x >> k) & 1
			switch ss.Phases[st] {
			case P0:
				if lvl != 0 {
					return false
				}
			case P1:
				if lvl != 1 {
					return false
				}
			}
		}
		return true
	}

	push(xstate{g.Initial, initLevels(g.Initial)})
	waves, peakFrontier = 1, 1
	waveEnd := 1 // absolute index one past the current wave's last state
	for i := 0; head < len(queue); i++ {
		if i == waveEnd {
			if w := next - waveEnd; w > peakFrontier {
				peakFrontier = w
			}
			waveEnd = next
			waves++
		}
		if head >= 4096 && 2*head >= len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		cur := queue[head]
		head++
		code := g.States[cur.orig].Code | (cur.x << nb)
		var enabled, impliedVals, decided uint64
		fire := func(sig int, dir stg.Dir) {
			if sig < 0 {
				return
			}
			bit := uint64(1) << sig
			if decided&bit == 0 {
				decided |= bit
				if dir == stg.Rising {
					impliedVals |= bit
				}
			}
			if inputMask&bit == 0 {
				enabled |= bit
			}
		}
		// State signal firings, then original edges gated by
		// successor-phase compatibility — the exact edge order the
		// materializing Expand generates, so first-edge implied-value
		// semantics match bit for bit.
		for k, ss := range g.StateSigs {
			lvl := (cur.x >> k) & 1
			switch {
			case ss.Phases[cur.orig] == PUp && lvl == 0:
				push(xstate{cur.orig, cur.x | 1<<k})
				fire(nb+k, stg.Rising)
			case ss.Phases[cur.orig] == PDown && lvl == 1:
				push(xstate{cur.orig, cur.x &^ (1 << k)})
				fire(nb+k, stg.Falling)
			}
		}
		for _, ei := range g.Out(cur.orig) {
			e := g.Edges[ei]
			if !compat(cur.x, e.To) {
				continue
			}
			push(xstate{e.To, cur.x})
			fire(e.Sig, e.Dir)
		}
		ws := WaveState{
			Index:   i,
			Origin:  cur.orig,
			Wave:    waves - 1,
			Code:    code,
			Enabled: enabled,
			Implied: impliedVals | (code &^ decided),
		}
		if err := emit(ws); err != nil {
			putExpandIndex(index)
			return 0, 0, err
		}
	}
	putExpandIndex(index)
	return waves, peakFrontier, nil
}

// ExpandStream runs the streaming wave expansion and collects the
// per-state columns into a Stream. This is the streaming counterpart of
// Expand: same interning order, same codes, same implied values — but
// the peak allocation is four words per state plus the interning map,
// instead of the materialized graph's states, edges and adjacency.
func (g *Graph) ExpandStream() (*Stream, error) {
	m := len(g.StateSigs)
	base := g.Base
	active := g.Active
	if m > 0 {
		base = make([]SignalInfo, 0, len(g.Base)+m)
		base = append(base, g.Base...)
		for _, ss := range g.StateSigs {
			base = append(base, SignalInfo{Name: ss.Name, Input: false})
		}
		active |= ((uint64(1) << m) - 1) << len(g.Base)
	}
	st := &Stream{
		Name:   g.Name,
		Base:   base,
		Active: active,
	}
	waves, peak, err := g.ExpandWaves(func(ws WaveState) error {
		st.Codes = append(st.Codes, ws.Code)
		st.Enabled = append(st.Enabled, ws.Enabled)
		st.Implied = append(st.Implied, ws.Implied)
		st.Origin = append(st.Origin, ws.Origin)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.Waves, st.PeakFrontier = waves, peak
	if m > 0 {
		st.Initial = 0 // the initial state is interned first
	} else {
		st.Initial = g.Initial
	}
	return st, nil
}

// impliedMask packs ImpliedValue for every Base signal of a phase-free
// state into one word: the first out-edge carrying a signal decides its
// bit (Rising→1, Falling→0), undecided signals keep their current code
// level — the same first-matching-edge rule Graph.ImpliedValue applies
// per signal.
func (g *Graph) impliedMask(s int) uint64 {
	var decided, vals uint64
	for _, ei := range g.Out(s) {
		e := g.Edges[ei]
		if e.Sig < 0 {
			continue
		}
		bit := uint64(1) << e.Sig
		if decided&bit != 0 {
			continue
		}
		decided |= bit
		if e.Dir == stg.Rising {
			vals |= bit
		}
	}
	return vals | (g.States[s].Code &^ decided)
}
