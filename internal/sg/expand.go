package sg

import (
	"fmt"
	"slices"
	"sync"

	"asyncsyn/internal/stg"
)

// xstate is an expansion work-list entry: an original state plus the
// level bits of the inserted state signals.
type xstate struct {
	orig int
	x    uint64
}

// expandIndexPool recycles the Expand state-interning map across calls
// (one Expand per refinement round). Maps are cleared BEFORE they go
// back to the pool (putExpandIndex), never on Get: a map sitting in the
// pool holds no stale entries — and therefore no references pinning a
// dead graph's states live across calls — and every Get (recycled or
// fresh from New) yields an empty map, so results are identical with or
// without a pool hit.
var expandIndexPool = sync.Pool{
	New: func() any { return make(map[xstate]int, 1024) },
}

// maxPooledMapEntries caps the size of maps returned to the interning
// pool. A Go map's bucket array never shrinks, so recycling the map of
// one huge expansion would pin its whole footprint in the pool for the
// life of the process; oversized maps are dropped for the GC instead.
const maxPooledMapEntries = 1 << 16

// putExpandIndex returns an interning map to expandIndexPool, clearing
// it first; oversized maps are dropped. Reports whether the map was
// pooled.
func putExpandIndex(m map[xstate]int) bool {
	if len(m) > maxPooledMapEntries {
		return false
	}
	clear(m)
	expandIndexPool.Put(m)
	return true
}

// Expand converts the 4-valued state-signal phase columns into explicit
// binary signals by inserting their transitions into the state graph
// (the paper's §3.5 expansion step). Each expanded state is an original
// state plus a level vector x for the state signals; n_k+ fires where the
// phase is Up and x_k is still 0, n_k− where Down and x_k is 1, and an
// original edge fires only when every level is compatible with the
// successor's phase (phase 0 needs x=0, phase 1 needs x=1, excited phases
// accept either — the semi-modular serialisation of concurrent firing).
// The result has no phase columns: state signals become non-input base
// signals.
func (g *Graph) Expand() (*Graph, error) {
	m := len(g.StateSigs)
	if len(g.Base)+m > MaxSignals {
		return nil, fmt.Errorf("sg: expansion exceeds %d signals", MaxSignals)
	}
	if m == 0 {
		c := g.Clone()
		c.Origin = make([]int, len(g.States))
		for i := range c.Origin {
			c.Origin[i] = i
		}
		return c, nil
	}

	base := append([]SignalInfo(nil), g.Base...)
	for _, ss := range g.StateSigs {
		base = append(base, SignalInfo{Name: ss.Name, Input: false})
	}
	nb := len(g.Base)

	ex := &Graph{
		Name:   g.Name,
		Base:   base,
		Active: g.Active | (((uint64(1) << m) - 1) << nb),
	}

	index := expandIndexPool.Get().(map[xstate]int)
	defer putExpandIndex(index)
	var pool []xstate
	push := func(s xstate) int {
		if i, ok := index[s]; ok {
			return i
		}
		i := len(pool)
		index[s] = i
		pool = append(pool, s)
		code := g.States[s.orig].Code | (s.x << nb)
		ex.States = append(ex.States, State{Code: code})
		ex.Origin = append(ex.Origin, s.orig)
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

	ex.Initial = push(xstate{g.Initial, initLevels(g.Initial)})
	for i := 0; i < len(pool); i++ {
		cur := pool[i]
		// State signal firings.
		for k, ss := range g.StateSigs {
			lvl := (cur.x >> k) & 1
			switch {
			case ss.Phases[cur.orig] == PUp && lvl == 0:
				j := push(xstate{cur.orig, cur.x | 1<<k})
				ex.Edges = append(ex.Edges, Edge{From: i, To: j, Sig: nb + k, Dir: stg.Rising})
			case ss.Phases[cur.orig] == PDown && lvl == 1:
				j := push(xstate{cur.orig, cur.x &^ (1 << k)})
				ex.Edges = append(ex.Edges, Edge{From: i, To: j, Sig: nb + k, Dir: stg.Falling})
			}
		}
		// Original edges, gated by successor-phase compatibility.
		for _, ei := range g.Out(cur.orig) {
			e := g.Edges[ei]
			if !compat(cur.x, e.To) {
				continue
			}
			j := push(xstate{e.To, cur.x})
			ex.Edges = append(ex.Edges, Edge{From: i, To: j, Sig: e.Sig, Dir: e.Dir})
		}
	}
	ex.IndexEdges()
	return ex, nil
}

// Table is a single-output truth table extracted from a state graph:
// minterms over the named support variables. Codes not in On or Off are
// don't-cares (unreachable or projected-away states).
type Table struct {
	Signal string
	Vars   []string
	On     []uint64
	Off    []uint64
}

// FunctionTable derives the implied-value table of non-input signal sig
// (an index into Base of an expanded, phase-free graph), projected onto
// the support signals in supportMask (bits over Base). It fails if two
// states project to the same code but imply different values — i.e. CSC
// is not satisfied over that support.
func (g *Graph) FunctionTable(sig int, supportMask uint64) (*Table, error) {
	if len(g.StateSigs) > 0 {
		return nil, fmt.Errorf("sg: FunctionTable requires an expanded graph")
	}
	return tableOver(g.Base, sig, supportMask, len(g.States),
		func(s int) uint64 { return g.States[s].Code },
		func(s int) uint8 { return g.ImpliedValue(s, sig) })
}

// tableOver is the table-extraction core shared by Graph.FunctionTable
// and Stream.FunctionTable: states are projected onto the support vars
// through codeAt and classified on/off by impliedAt, the ON and OFF
// lists holding each projected code once, in ascending order. Both
// callers therefore produce bit-identical tables from the same state
// sequence.
//
// Each state contributes one key, its code projected onto the support
// (the support bits packed toward bit 0) shifted left once, with the
// implied value in bit 0. Projection keeps the order of masked codes
// and leaves only the support's bytes varying, so the radix sort that
// puts equal codes side by side runs as few byte passes as the support
// needs; one pass then reads off both lists. A code that carries both
// values is the ill-defined case.
func tableOver(base []SignalInfo, sig int, supportMask uint64, n int,
	codeAt func(s int) uint64, impliedAt func(s int) uint8) (*Table, error) {
	var mask uint64
	t := &Table{Signal: base[sig].Name}
	for i := range base {
		if supportMask&(1<<i) != 0 {
			mask |= 1 << i
			t.Vars = append(t.Vars, base[i].Name)
		}
	}
	cp := newCompressor(mask)
	sc := scratchFor(n)
	defer releaseScratch(n, sc)
	keys := sc.u64sFor(n)
	for s := range keys {
		keys[s] = cp.compress(codeAt(s))<<1 | uint64(impliedAt(s))
	}
	sortCodes(keys, sc.u64s2For(n))
	nOn, nOff := 0, 0
	var both []uint64 // projected codes carrying both values, ascending
	for i, k := range keys {
		switch {
		case i > 0 && k == keys[i-1]:
		case k&1 == 0:
			nOff++
		case i > 0 && k^1 == keys[i-1]:
			both = append(both, k>>1)
		default:
			nOn++
		}
	}
	if both != nil {
		// Name the code of the first state, in state order, that
		// contradicts an earlier state; one does, so the scan ends there.
		first := make([]uint8, len(both)) // implied value + 1 of the first state per code
		for s := 0; ; s++ {
			c := cp.compress(codeAt(s))
			i, ok := slices.BinarySearch(both, c)
			if !ok {
				continue
			}
			if iv := impliedAt(s) + 1; first[i] == 0 {
				first[i] = iv
			} else if first[i] != iv {
				return nil, fmt.Errorf("sg: signal %q ill-defined on support (code %b implies both 0 and 1)",
					base[sig].Name, c)
			}
		}
	}
	if nOn > 0 {
		t.On = make([]uint64, 0, nOn)
	}
	if nOff > 0 {
		t.Off = make([]uint64, 0, nOff)
	}
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		if k&1 == 1 {
			t.On = append(t.On, k>>1)
		} else {
			t.Off = append(t.Off, k>>1)
		}
	}
	return t, nil
}

// compressor packs the bits of a code that lie under a fixed mask
// toward bit 0, keeping their order (a software PEXT, after Hacker's
// Delight §7-4): round i moves the precomputed set of bits mv[i] right
// by 2^i, so a projection costs six branch-free rounds however many
// bits the mask has.
type compressor struct {
	mask uint64
	mv   [6]uint64
}

func newCompressor(m uint64) compressor {
	c := compressor{mask: m}
	mk := ^m << 1 // counts the zeros to the right of each bit
	for i := range c.mv {
		mp := mk ^ mk<<1 // parallel suffix parity
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv := mp & m // the bits that move by 2^i
		c.mv[i] = mv
		m = m ^ mv | mv>>(1<<i)
		mk &^= mp
	}
	return c
}

// compress returns the bits of x under the mask, packed toward bit 0.
func (c *compressor) compress(x uint64) uint64 {
	x &= c.mask
	for i, mv := range c.mv {
		t := x & mv
		x = x ^ t | t>>(1<<i)
	}
	return x
}
